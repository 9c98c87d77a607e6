// Package sema performs semantic analysis over parsed translation units:
// it builds the program-wide symbol table (merging extern declarations
// across files), resolves every identifier use, and computes the type of
// every expression. Results are recorded on the AST nodes: each
// expression's type (ast.Expr.SetExprType) and the Symbol.ID each
// *ast.Ident resolves to and each *ast.VarDecl or *ast.FuncDecl defines
// (Program.Sym maps an id back to its Symbol). One Analyze annotates the
// files of one parse; analyzing the same trees again is not supported.
package sema

import (
	"fmt"

	"repro/internal/cc/ast"
	"repro/internal/cc/layout"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// SymKind classifies symbols.
type SymKind int

// Symbol kinds.
const (
	SymVar SymKind = iota
	SymFunc
	SymParam
)

func (k SymKind) String() string {
	switch k {
	case SymVar:
		return "var"
	case SymFunc:
		return "func"
	case SymParam:
		return "param"
	}
	return "sym"
}

// Symbol is a named program object (variable, parameter or function).
type Symbol struct {
	ID     int
	Name   string // source name
	Unique string // program-wide unique name (file-qualified for statics/locals)
	Kind   SymKind
	Type   *types.Type
	Global bool
	Static bool
	Pos    token.Pos

	// Def is the defining FuncDecl for functions with bodies.
	Def *ast.FuncDecl
	// Params lists a defined function's parameter symbols in signature
	// order (nil entries for unnamed parameters).
	Params []*Symbol
	// Implicit marks functions that were never declared (C89 implicit int).
	Implicit bool
}

func (s *Symbol) String() string { return s.Unique }

// Program is the result of analyzing a set of translation units.
type Program struct {
	Files    []*ast.File
	Universe *types.Universe
	Layout   *layout.Engine

	// Symbols lists every symbol in creation order; Symbols[i].ID is i+1.
	Symbols []*Symbol
	// Funcs lists function symbols that have bodies.
	Funcs []*Symbol

	Errors []error
}

// Sym returns the symbol with the given id, or nil for id 0 (a node
// that analysis did not resolve).
func (p *Program) Sym(id int) *Symbol {
	if id == 0 {
		return nil
	}
	return p.Symbols[id-1]
}

// LookupGlobal finds a global symbol by source name.
func (p *Program) LookupGlobal(name string) *Symbol {
	for _, s := range p.Symbols {
		if s.Global && s.Name == name {
			return s
		}
	}
	return nil
}

// Analyze type-checks the files (which must share univ) and returns the
// program. Errors are accumulated; the first is returned as err while the
// full list stays in Program.Errors.
func Analyze(files []*ast.File, univ *types.Universe, lay *layout.Engine) (*Program, error) {
	if univ == nil {
		univ = types.NewUniverse()
	}
	if lay == nil {
		lay = layout.New(nil)
	}
	c := &checker{
		prog: &Program{
			Files:    files,
			Universe: univ,
			Layout:   lay,
		},
		globals:     make(map[string]*Symbol),
		fileStatics: make(map[string]map[string]*Symbol),
	}
	for _, f := range files {
		c.setFile(f)
		c.collectGlobals(f)
	}
	for _, f := range files {
		c.setFile(f)
		c.checkFile(f)
	}
	for _, s := range c.prog.Symbols {
		if s.Kind == SymFunc && s.Def != nil {
			c.prog.Funcs = append(c.prog.Funcs, s)
		}
	}
	var err error
	if len(c.prog.Errors) > 0 {
		err = c.prog.Errors[0]
	}
	return c.prog, err
}

type checker struct {
	prog *Program
	file *ast.File
	// globals holds the file-scope symbols with external linkage (and
	// implicitly declared names), keyed by source name.
	globals map[string]*Symbol
	// statics holds the current file's internal-linkage symbols, keyed by
	// source name; fileStatics keeps one such table per file name.
	statics     map[string]*Symbol
	fileStatics map[string]map[string]*Symbol
	scopes      []map[string]*Symbol
	fn          *ast.FuncDecl // current function
	nextID      int
}

// setFile makes f the current file, switching to its static table.
func (c *checker) setFile(f *ast.File) {
	c.file = f
	c.statics = c.fileStatics[f.Name]
}

func (c *checker) errorf(pos token.Pos, format string, args ...interface{}) {
	c.prog.Errors = append(c.prog.Errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) newSymbol(name string, kind SymKind, typ *types.Type, pos token.Pos) *Symbol {
	c.nextID++
	s := &Symbol{ID: c.nextID, Name: name, Unique: name, Kind: kind, Type: typ, Pos: pos}
	c.prog.Symbols = append(c.prog.Symbols, s)
	return s
}

// --- declaration collection ---

// collectGlobals registers all file-scope symbols first so that forward
// references and cross-file externs resolve.
func (c *checker) collectGlobals(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			d.Sym = c.declareGlobal(d.Name, d.Type, d.Storage, d.Pos(), nil).ID
		case *ast.FuncDecl:
			d.Sym = c.declareGlobal(d.Name, d.Type, d.Storage, d.Pos(), d).ID
		}
	}
}

// declareGlobal declares (or merges a redeclaration of) a file-scope
// name and returns its symbol.
func (c *checker) declareGlobal(name string, typ *types.Type, storage ast.StorageClass, pos token.Pos, def *ast.FuncDecl) *Symbol {
	static := storage == ast.StorageStatic
	table := c.globals
	if static {
		// Internal linkage: one symbol per (file, name).
		if c.statics == nil {
			c.statics = make(map[string]*Symbol)
			c.fileStatics[c.file.Name] = c.statics
		}
		table = c.statics
	}
	sym, ok := table[name]
	if ok {
		// Merge redeclaration.
		if !types.Compatible(types.Unqualified(sym.Type), types.Unqualified(typ)) {
			// Tolerate func-vs-var conflicts from headers with an error.
			c.errorf(pos, "conflicting declarations of %q: %s vs %s", name, sym.Type, typ)
		}
		sym.Type = types.Composite(sym.Type, typ)
		if def != nil {
			if sym.Def != nil {
				c.errorf(pos, "redefinition of function %q", name)
			}
			sym.Def = def
			sym.Type = def.Type
		}
	} else {
		kind := SymVar
		if typ.Kind == types.Func {
			kind = SymFunc
		}
		sym = c.newSymbol(name, kind, typ, pos)
		sym.Global = true
		sym.Static = static
		if static {
			sym.Unique = c.file.Name + "::" + name
		}
		sym.Def = def
		table[name] = sym
	}
	return sym
}

// lookupGlobalFor resolves a name at file scope, preferring this file's
// static symbol.
func (c *checker) lookupGlobalFor(name string) *Symbol {
	if s, ok := c.statics[name]; ok {
		return s
	}
	return c.globals[name]
}

// --- scope management ---

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*Symbol)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declareLocal(name string, kind SymKind, typ *types.Type, pos token.Pos) *Symbol {
	s := c.newSymbol(name, kind, typ, pos)
	fname := "?"
	if c.fn != nil {
		fname = c.fn.Name
	}
	s.Unique = fmt.Sprintf("%s::%s@%d", fname, name, s.ID)
	if len(c.scopes) > 0 {
		c.scopes[len(c.scopes)-1][name] = s
	}
	return s
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.lookupGlobalFor(name)
}

// --- checking ---

func (c *checker) checkFile(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			if d.Init != nil {
				c.checkInit(d.Init)
			}
		case *ast.FuncDecl:
			c.checkFunc(d)
		}
	}
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.fn = fd
	c.pushScope()
	var params []*Symbol
	for _, prm := range fd.Type.Sig.Params {
		if prm.Name == "" {
			params = append(params, nil)
			continue
		}
		s := c.declareLocal(prm.Name, SymParam, prm.Type, fd.Pos())
		params = append(params, s)
	}
	if sym := c.prog.Sym(fd.Sym); sym.Def == fd {
		sym.Params = params
	}
	c.checkStmt(fd.Body)
	c.popScope()
	c.fn = nil
}

func (c *checker) checkInit(in ast.Init) {
	switch in := in.(type) {
	case *ast.InitList:
		for _, item := range in.Items {
			c.checkInit(item)
		}
	case ast.Expr:
		c.checkExpr(in)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.Block:
		c.pushScope()
		for _, st := range s.List {
			c.checkStmt(st)
		}
		c.popScope()
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			switch d := d.(type) {
			case *ast.VarDecl:
				var sym *Symbol
				if d.Storage == ast.StorageStatic {
					// Function-scope static: unique global object.
					sym = c.newSymbol(d.Name, SymVar, d.Type, d.Pos())
					fname := "?"
					if c.fn != nil {
						fname = c.fn.Name
					}
					sym.Unique = fmt.Sprintf("%s::static %s@%d", fname, d.Name, sym.ID)
					sym.Global = true
					sym.Static = true
					if len(c.scopes) > 0 {
						c.scopes[len(c.scopes)-1][d.Name] = sym
					}
				} else if d.Storage == ast.StorageExtern {
					sym = c.declareGlobal(d.Name, d.Type, ast.StorageNone, d.Pos(), nil)
					if len(c.scopes) > 0 {
						c.scopes[len(c.scopes)-1][d.Name] = sym
					}
				} else {
					sym = c.declareLocal(d.Name, SymVar, d.Type, d.Pos())
				}
				d.Sym = sym.ID
				if d.Init != nil {
					c.checkInit(d.Init)
				}
			}
		}
	case *ast.Empty:
	case *ast.If:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Then)
		c.checkStmt(s.Else)
	case *ast.While:
		c.checkExpr(s.Cond)
		c.checkStmt(s.Body)
	case *ast.DoWhile:
		c.checkStmt(s.Body)
		c.checkExpr(s.Cond)
	case *ast.For:
		c.pushScope()
		if s.InitDecl != nil {
			c.checkStmt(s.InitDecl)
		} else if s.Init != nil {
			c.checkExpr(s.Init)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond)
		}
		if s.Post != nil {
			c.checkExpr(s.Post)
		}
		c.checkStmt(s.Body)
		c.popScope()
	case *ast.Switch:
		c.checkExpr(s.Tag)
		c.checkStmt(s.Body)
	case *ast.Case:
		if s.Expr != nil {
			c.checkExpr(s.Expr)
		}
		for _, st := range s.Body {
			c.checkStmt(st)
		}
	case *ast.Return:
		if s.Expr != nil {
			c.checkExpr(s.Expr)
		}
	case *ast.Label:
		c.checkStmt(s.Stmt)
	case *ast.Break, *ast.Continue, *ast.Goto:
	default:
		c.errorf(s.Pos(), "unhandled statement %T", s)
	}
}

// intType is shorthand for the shared int type.
func (c *checker) intType() *types.Type { return c.prog.Universe.Basic(types.Int) }

// promote applies the integer promotions.
func (c *checker) promote(t *types.Type) *types.Type {
	switch t.Kind {
	case types.Bool, types.Char, types.SChar, types.UChar, types.Short, types.UShort, types.Enum:
		return c.intType()
	}
	return t
}

// rank orders arithmetic kinds for the usual arithmetic conversions.
func rank(k types.Kind) int {
	switch k {
	case types.Int:
		return 1
	case types.UInt:
		return 2
	case types.Long:
		return 3
	case types.ULong:
		return 4
	case types.LongLong:
		return 5
	case types.ULongLong:
		return 6
	case types.Float:
		return 7
	case types.Double:
		return 8
	case types.LongDouble:
		return 9
	}
	return 0
}

// usualArith performs the usual arithmetic conversions on two operand types.
func (c *checker) usualArith(a, b *types.Type) *types.Type {
	a, b = c.promote(a), c.promote(b)
	if rank(b.Kind) > rank(a.Kind) {
		return c.prog.Universe.Basic(b.Kind)
	}
	return c.prog.Universe.Basic(a.Kind)
}

// checkExpr computes and records the type of e (nil-safe).
func (c *checker) checkExpr(e ast.Expr) *types.Type {
	if e == nil {
		return nil
	}
	t := c.typeOf(e)
	if t == nil {
		t = c.intType()
	}
	e.SetExprType(t)
	return t
}

func (c *checker) typeOf(e ast.Expr) *types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			c.errorf(e.Pos(), "undeclared identifier %q", e.Name)
			sym = c.newSymbol(e.Name, SymVar, c.intType(), e.Pos())
			sym.Global = true
			sym.Implicit = true
			c.globals[e.Name] = sym
		}
		e.Sym = sym.ID
		return sym.Type

	case *ast.IntLit:
		return c.intType()

	case *ast.FloatLit:
		return c.prog.Universe.Basic(types.Double)

	case *ast.CharLit:
		return c.intType()

	case *ast.StringLit:
		return types.ArrayOf(c.prog.Universe.Basic(types.Char), int64(len(e.Value)+1))

	case *ast.Paren:
		return c.checkExpr(e.X)

	case *ast.Unary:
		xt := c.checkExpr(e.X)
		switch e.Op {
		case token.AND:
			return types.PointerTo(xt)
		case token.MUL:
			dt := xt.Decay()
			if dt.Kind != types.Ptr {
				c.errorf(e.Pos(), "dereference of non-pointer type %s", xt)
				return c.intType()
			}
			return dt.Elem
		case token.NOT:
			return c.intType()
		case token.TILDE, token.ADD, token.SUB:
			return c.promote(xt)
		case token.INC, token.DEC:
			return xt
		}
		return c.intType()

	case *ast.Postfix:
		return c.checkExpr(e.X)

	case *ast.Binary:
		xt := c.checkExpr(e.X).Decay()
		yt := c.checkExpr(e.Y).Decay()
		switch e.Op {
		case token.LAND, token.LOR, token.EQL, token.NEQ,
			token.LSS, token.GTR, token.LEQ, token.GEQ:
			return c.intType()
		case token.ADD:
			if xt.Kind == types.Ptr {
				return xt
			}
			if yt.Kind == types.Ptr {
				return yt
			}
			return c.usualArith(xt, yt)
		case token.SUB:
			if xt.Kind == types.Ptr && yt.Kind == types.Ptr {
				return c.prog.Universe.Basic(types.Long) // ptrdiff_t
			}
			if xt.Kind == types.Ptr {
				return xt
			}
			return c.usualArith(xt, yt)
		case token.SHL, token.SHR:
			return c.promote(xt)
		default:
			if xt.IsArithmetic() && yt.IsArithmetic() {
				return c.usualArith(xt, yt)
			}
			return c.promote(xt)
		}

	case *ast.Assign:
		lt := c.checkExpr(e.L)
		c.checkExpr(e.R)
		return types.Unqualified(lt)

	case *ast.Cond:
		c.checkExpr(e.C)
		at := c.checkExpr(e.A).Decay()
		bt := c.checkExpr(e.B).Decay()
		switch {
		case at.Kind == types.Ptr:
			return at
		case bt.Kind == types.Ptr:
			return bt
		case at.IsArithmetic() && bt.IsArithmetic():
			return c.usualArith(at, bt)
		default:
			return at
		}

	case *ast.Comma:
		c.checkExpr(e.X)
		return c.checkExpr(e.Y)

	case *ast.Call:
		// Implicit function declaration: f(...) with unknown f.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if c.lookup(id.Name) == nil {
				sym := c.newSymbol(id.Name, SymFunc, types.FuncType(c.intType(), nil, false, true), id.Pos())
				sym.Global = true
				sym.Implicit = true
				c.globals[id.Name] = sym
			}
		}
		ft := c.checkExpr(e.Fun)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		// Through pointers: (*fp)(...) or fp(...).
		if ft.Kind == types.Ptr {
			ft = ft.Elem
		}
		if ft.Kind != types.Func {
			c.errorf(e.Pos(), "call of non-function type %s", ft)
			return c.intType()
		}
		return ft.Sig.Result

	case *ast.Index:
		xt := c.checkExpr(e.X).Decay()
		c.checkExpr(e.I)
		if xt.Kind != types.Ptr {
			// i[a] form: swap.
			it := e.I.ExprType().Decay()
			if it.Kind == types.Ptr {
				return it.Elem
			}
			c.errorf(e.Pos(), "subscript of non-pointer type %s", xt)
			return c.intType()
		}
		return xt.Elem

	case *ast.Member:
		xt := c.checkExpr(e.X)
		rt := xt
		if e.Arrow {
			dt := xt.Decay()
			if dt.Kind != types.Ptr {
				c.errorf(e.Pos(), "-> on non-pointer type %s", xt)
				return c.intType()
			}
			rt = dt.Elem
		}
		if !rt.IsRecord() {
			c.errorf(e.Pos(), "field %q selected from non-record type %s", e.Name, rt)
			return c.intType()
		}
		i := rt.Record.FieldIndex(e.Name)
		if i < 0 {
			c.errorf(e.Pos(), "type %s has no field %q", rt, e.Name)
			return c.intType()
		}
		return rt.Record.Fields[i].Type

	case *ast.Cast:
		c.checkExpr(e.X)
		return e.T

	case *ast.SizeofExpr:
		c.checkExpr(e.X)
		return c.prog.Universe.Basic(types.ULong)

	case *ast.SizeofType:
		return c.prog.Universe.Basic(types.ULong)
	}
	c.errorf(e.Pos(), "unhandled expression %T", e)
	return c.intType()
}
