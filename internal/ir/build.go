package ir

import (
	"fmt"

	"repro/internal/cc/ast"
	"repro/internal/cc/sema"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// Summarizer supplies pointer-effect models of external (library) functions,
// mirroring the paper's use of the Wilson–Lam libc summaries.
type Summarizer interface {
	// IsAllocator reports whether a call to name returns a fresh heap
	// block (malloc-like). Allocator calls get per-call-site heap
	// pseudo-variables.
	IsAllocator(name string) bool
	// EmitAllocEffects emits any extra effects of an allocator call
	// beyond res = &heap — e.g. realloc's aliasing of the old block.
	// args holds the lowered argument objects (entries may be nil).
	EmitAllocEffects(b *Builder, name string, res *Object, args []*Object, pos token.Pos)
	// EmitBody emits a synthetic body for the named external function
	// into fn using the builder's Emit API, returning false when the
	// function is unknown.
	EmitBody(b *Builder, fn *Func) bool
}

// Config controls IR construction.
type Config struct {
	// Summarizer models external functions; may be nil (all externals
	// are then treated as no-ops, with warnings).
	Summarizer Summarizer
	// ModelMainArgs, when set, gives main's argv a synthetic points-to
	// target so argv-walking code has something to chase.
	ModelMainArgs bool
}

// Build lowers a type-checked program to the normalized IR.
func Build(prog *sema.Program, cfg Config) *Program {
	b := &Builder{
		sema:    prog,
		cfg:     cfg,
		out:     &Program{},
		objects: make([]*Object, len(prog.Symbols)+1),
		syms:    make([]Symbol, len(prog.Symbols)+1),
	}
	b.build()
	return b.out
}

// Builder lowers AST to IR. Its exported Emit/New methods are also the API
// package libsum uses to express library summaries.
type Builder struct {
	sema    *sema.Program
	cfg     Config
	out     *Program
	fn      *Func     // current function (nil during global initializers)
	objects []*Object // IR object per sema.Symbol.ID
	syms    []Symbol  // IR symbol per sema.Symbol.ID, one allocation
	nextID  int
	nTemp   int
	nSite   int
}

// Program returns the program under construction.
func (b *Builder) Program() *Program { return b.out }

func (b *Builder) warnf(format string, args ...interface{}) {
	b.out.Warnings = append(b.out.Warnings, fmt.Sprintf(format, args...))
}

// --- object creation ---

func (b *Builder) newObject(name string, kind ObjKind, t *types.Type, pos token.Pos) *Object {
	b.nextID++
	o := &Object{ID: b.nextID, Name: name, Kind: kind, Type: t, Pos: pos}
	b.out.Objects = append(b.out.Objects, o)
	return o
}

// NewTemp creates a fresh normalization temporary of the given type.
func (b *Builder) NewTemp(t *types.Type, pos token.Pos) *Object {
	b.nTemp++
	return b.newObject(fmt.Sprintf("tmp%d", b.nTemp), ObjTemp, t, pos)
}

// NewHeap creates an allocation-site pseudo-variable.
func (b *Builder) NewHeap(name string, t *types.Type, pos token.Pos) *Object {
	return b.newObject(name, ObjHeap, t, pos)
}

// NewStatic creates a named static object (used by library summaries for
// internal buffers such as strtok's saved pointer or getenv's result).
func (b *Builder) NewStatic(name string, t *types.Type, pos token.Pos) *Object {
	return b.newObject(name, ObjVar, t, pos)
}

// Universe returns the program's type universe (for summary construction).
func (b *Builder) Universe() *types.Universe { return b.sema.Universe }

// EmitCall emits an indirect call statement (used by summaries of functions
// like qsort that invoke a caller-supplied function pointer).
func (b *Builder) EmitCall(result, calleePtr *Object, args []*Object, pos token.Pos) {
	b.emit(&Stmt{Op: OpCall, Dst: result, Ptr: calleePtr, Args: args, Pos: pos})
}

func (b *Builder) objectOf(sym *sema.Symbol) *Object {
	if o := b.objects[sym.ID]; o != nil {
		return o
	}
	kind := ObjVar
	switch sym.Kind {
	case sema.SymFunc:
		kind = ObjFunc
	case sema.SymParam:
		kind = ObjParam
	}
	o := b.newObject(sym.Unique, kind, sym.Type, sym.Pos)
	o.Sym = &b.syms[sym.ID]
	*o.Sym = Symbol{Name: sym.Name, Unique: sym.Unique, Global: sym.Global, Body: sym.Def != nil}
	b.objects[sym.ID] = o
	return o
}

// --- statement emission (exported for libsum) ---

func (b *Builder) emit(s *Stmt) *Stmt {
	s.Fn = b.fn
	if b.fn != nil {
		b.fn.Stmts = append(b.fn.Stmts, s)
	}
	b.out.Stmts = append(b.out.Stmts, s)
	if s.Site != nil && s.Site.ID == 0 {
		b.nSite++
		s.Site.ID = b.nSite
		b.out.Sites = append(b.out.Sites, s.Site)
	}
	return s
}

// EmitAddrOf emits dst = &src.path.
func (b *Builder) EmitAddrOf(dst *Object, src Ref, pos token.Pos) {
	b.emit(&Stmt{Op: OpAddrOf, Dst: dst, Src: src.Obj, Path: src.Path, Pos: pos})
}

// EmitCopy emits dst = src.path.
func (b *Builder) EmitCopy(dst *Object, src Ref, pos token.Pos) {
	b.emit(&Stmt{Op: OpCopy, Dst: dst, Src: src.Obj, Path: src.Path, Pos: pos})
}

// EmitLoad emits dst = *ptr.
func (b *Builder) EmitLoad(dst, ptr *Object, pos token.Pos) {
	b.emit(&Stmt{Op: OpLoad, Dst: dst, Ptr: ptr, Pos: pos})
}

// EmitStore emits *ptr = src.
func (b *Builder) EmitStore(ptr, src *Object, pos token.Pos) {
	b.emit(&Stmt{Op: OpStore, Ptr: ptr, Src: src, Pos: pos})
}

// EmitMemCopy emits a whole-object copy through two pointers (memcpy).
func (b *Builder) EmitMemCopy(dstPtr, srcPtr *Object, pos token.Pos) {
	b.emit(&Stmt{Op: OpMemCopy, Ptr: dstPtr, Src: srcPtr, Pos: pos})
}

// EmitPtrArith emits dst = src ⊕ … (Assumption 1 smearing).
func (b *Builder) EmitPtrArith(dst, src *Object, pos token.Pos) {
	b.emit(&Stmt{Op: OpPtrArith, Dst: dst, Src: src, Pos: pos})
}

// --- program construction ---

func (b *Builder) build() {
	// Create IR funcs for every defined function first so calls bind.
	for _, sym := range b.sema.Funcs {
		b.declareFunc(sym)
	}
	// Synthetic bodies for externals with summaries.
	for _, sym := range b.sema.Symbols {
		if sym.Kind != sema.SymFunc || sym.Def != nil {
			continue
		}
		if sym.Type.Kind != types.Func {
			continue
		}
		if b.cfg.Summarizer != nil && b.cfg.Summarizer.IsAllocator(sym.Name) {
			// Per-site handling; also give a shared synthetic body
			// so indirect calls through function pointers bind.
			fn := b.declareFunc(sym)
			b.fn = fn
			heap := b.NewHeap("heap@"+sym.Name, nil, sym.Pos)
			if fn.Retval != nil {
				b.EmitAddrOf(fn.Retval, Ref{Obj: heap}, sym.Pos)
			}
			b.fn = nil
			continue
		}
		if b.cfg.Summarizer != nil {
			fn := b.declareFunc(sym)
			b.fn = fn
			if !b.cfg.Summarizer.EmitBody(b, fn) {
				b.warnf("no summary for external function %q; treated as no-op", sym.Name)
			}
			b.fn = nil
			continue
		}
		b.warnf("no summarizer; external function %q treated as no-op", sym.Name)
	}

	// Global initializers.
	for _, f := range b.sema.Files {
		for _, d := range f.Decls {
			vd, ok := d.(*ast.VarDecl)
			if !ok || vd.Init == nil {
				continue
			}
			sym := b.sema.Info.Defs[d]
			if sym == nil {
				continue
			}
			b.lowerInit(Ref{Obj: b.objectOf(sym)}, sym.Type, vd.Init)
		}
	}

	// Function bodies.
	for _, sym := range b.sema.Funcs {
		fn := b.objects[sym.ID].Fn
		b.fn = fn
		if b.cfg.ModelMainArgs && sym.Name == "main" && len(fn.Params) >= 2 && fn.Params[1] != nil {
			b.modelMainArgs(fn)
		}
		b.lowerStmt(sym.Def.Body)
		b.fn = nil
	}
}

// declareFunc creates (or returns) the IR Func for a function symbol.
func (b *Builder) declareFunc(sym *sema.Symbol) *Func {
	obj := b.objectOf(sym)
	if obj.Fn != nil {
		return obj.Fn
	}
	fn := &Func{Sym: obj.Sym, Obj: obj}
	sig := sym.Type.Sig

	var paramSyms []*sema.Symbol
	if sym.Def != nil {
		paramSyms = b.sema.Info.Params[sym.Def]
	}
	for i, prm := range sig.Params {
		var o *Object
		if i < len(paramSyms) && paramSyms[i] != nil {
			o = b.objectOf(paramSyms[i])
		} else {
			name := prm.Name
			if name == "" {
				name = fmt.Sprintf("arg%d", i)
			}
			o = b.newObject(fmt.Sprintf("%s::%s", sym.Unique, name), ObjParam, prm.Type, sym.Pos)
		}
		fn.Params = append(fn.Params, o)
	}
	if sig.Variadic || sig.OldStyle {
		fn.Varargs = b.newObject(sym.Unique+"::...", ObjVarargs, types.PointerTo(b.sema.Universe.Basic(types.Void)), sym.Pos)
	}
	if !sig.Result.IsVoid() {
		fn.Retval = b.newObject(sym.Unique+"::ret", ObjRetval, sig.Result, sym.Pos)
	}
	obj.Fn = fn
	b.out.Funcs = append(b.out.Funcs, fn)
	return fn
}

// modelMainArgs gives argv something to point at.
func (b *Builder) modelMainArgs(fn *Func) {
	pos := fn.Obj.Pos
	u := b.sema.Universe
	charArr := types.ArrayOf(u.Basic(types.Char), 64)
	strObj := b.newObject("argv@str", ObjString, charArr, pos)
	vec := b.newObject("argv@vec", ObjVar, types.ArrayOf(types.PointerTo(u.Basic(types.Char)), 1), pos)
	t1 := b.NewTemp(types.PointerTo(u.Basic(types.Char)), pos)
	b.EmitAddrOf(t1, Ref{Obj: strObj}, pos)
	t2 := b.NewTemp(types.PointerTo(types.PointerTo(u.Basic(types.Char))), pos)
	b.EmitAddrOf(t2, Ref{Obj: vec}, pos)
	b.EmitStore(t2, t1, pos)
	b.EmitCopy(fn.Params[1], Ref{Obj: t2}, pos)
}

// --- lvalues ---

// lval is the lowered form of an lvalue expression: either a direct object
// reference (t.β) or an indirect one ((*p).α).
type lval struct {
	direct bool
	ref    Ref // valid when direct

	ptr  *Object // valid when !direct
	path Path
	site *DerefSite // shared by all statements emitted for one source deref

	typ *types.Type // C type of the lvalue
}

func (b *Builder) newSite(pos token.Pos, ptr *Object) *DerefSite {
	return &DerefSite{Pos: pos, Ptr: ptr} // registered on first emission
}

// emitWithSite attaches the site to the statement and emits it.
func (b *Builder) emitWithSite(s *Stmt, site *DerefSite) {
	s.Site = site
	b.emit(s)
}

func (b *Builder) exprType(e ast.Expr) *types.Type {
	if t, ok := b.sema.Info.Types[e]; ok {
		return t
	}
	return b.sema.Universe.Basic(types.Int)
}

// lvalue lowers e as an lvalue.
func (b *Builder) lvalue(e ast.Expr) lval {
	switch e := e.(type) {
	case *ast.Paren:
		return b.lvalue(e.X)

	case *ast.Ident:
		sym := b.sema.Info.Uses[e]
		if sym == nil {
			// Analysis proceeded past an undeclared name; synthesize.
			o := b.NewTemp(b.exprType(e), e.Pos())
			return lval{direct: true, ref: Ref{Obj: o}, typ: o.Type}
		}
		o := b.objectOf(sym)
		return lval{direct: true, ref: Ref{Obj: o}, typ: sym.Type}

	case *ast.Unary:
		if e.Op == token.MUL {
			ptr := b.valueObj(e.X)
			if ptr == nil {
				ptr = b.NewTemp(b.exprType(e.X), e.Pos())
			}
			return lval{
				ptr:  ptr,
				site: b.newSite(e.Pos(), ptr),
				typ:  b.exprType(e),
			}
		}

	case *ast.Member:
		if e.Arrow {
			ptr := b.valueObj(e.X)
			if ptr == nil {
				ptr = b.NewTemp(b.exprType(e.X), e.Pos())
			}
			return lval{
				ptr:  ptr,
				path: Path{e.Name},
				site: b.newSite(e.Pos(), ptr),
				typ:  b.exprType(e),
			}
		}
		lv := b.lvalue(e.X)
		if lv.direct {
			lv.ref.Path = lv.ref.Path.Extend(e.Name)
		} else {
			lv.path = lv.path.Extend(e.Name)
		}
		lv.typ = b.exprType(e)
		return lv

	case *ast.Index:
		// Arrays are modeled as a single element, so indexing an array
		// lvalue does not change the reference; indexing a pointer is a
		// dereference.
		b.value(e.I) // side effects of the index expression
		xt := b.exprType(e.X)
		if xt.Kind == types.Array {
			lv := b.lvalue(e.X)
			lv.typ = b.exprType(e)
			return lv
		}
		ptr := b.valueObj(e.X)
		if ptr == nil {
			ptr = b.NewTemp(xt, e.Pos())
		}
		return lval{
			ptr:  ptr,
			site: b.newSite(e.Pos(), ptr),
			typ:  b.exprType(e),
		}

	case *ast.Cast:
		// (T)lv as an lvalue (GCC extension, occasionally seen).
		lv := b.lvalue(e.X)
		lv.typ = e.T
		return lv
	}

	// Fallback: treat as a fresh location (keeps lowering total).
	o := b.NewTemp(b.exprType(e), e.Pos())
	return lval{direct: true, ref: Ref{Obj: o}, typ: o.Type}
}

// addrOfLval materializes a pointer temp holding the address of lv.
func (b *Builder) addrOfLval(lv lval, pos token.Pos) *Object {
	tmp := b.NewTemp(types.PointerTo(lv.typ), pos)
	if lv.direct {
		b.EmitAddrOf(tmp, lv.ref, pos)
		return tmp
	}
	if len(lv.path) == 0 {
		// &*p is just p.
		b.EmitCopy(tmp, Ref{Obj: lv.ptr}, pos)
		return tmp
	}
	b.emitWithSite(&Stmt{Op: OpAddrField, Dst: tmp, Ptr: lv.ptr, Path: lv.path, Pos: pos}, lv.site)
	return tmp
}

// readLval loads the current value of lv into an object.
// Returns nil when the lvalue's value cannot carry pointers... it always can
// under casting, so a temp is always produced.
func (b *Builder) readLval(lv lval, pos token.Pos) *Object {
	if lv.direct {
		// Array-typed and function-typed lvalues decay to addresses.
		if lv.typ.Kind == types.Array || lv.typ.Kind == types.Func {
			tmp := b.NewTemp(lv.typ.Decay(), pos)
			b.EmitAddrOf(tmp, lv.ref, pos)
			return tmp
		}
		if len(lv.ref.Path) == 0 {
			return lv.ref.Obj
		}
		tmp := b.NewTemp(lv.typ, pos)
		b.EmitCopy(tmp, lv.ref, pos)
		return tmp
	}
	// Indirect.
	if lv.typ.Kind == types.Array {
		// Loading an array field yields its address: &((*p).α).
		tmp := b.NewTemp(lv.typ.Decay(), pos)
		if len(lv.path) == 0 {
			b.EmitCopy(tmp, Ref{Obj: lv.ptr}, pos)
		} else {
			b.emitWithSite(&Stmt{Op: OpAddrField, Dst: tmp, Ptr: lv.ptr, Path: lv.path, Pos: pos}, lv.site)
		}
		return tmp
	}
	ptr := lv.ptr
	if len(lv.path) > 0 {
		fieldPtr := b.NewTemp(types.PointerTo(lv.typ), pos)
		b.emitWithSite(&Stmt{Op: OpAddrField, Dst: fieldPtr, Ptr: lv.ptr, Path: lv.path, Pos: pos}, lv.site)
		ptr = fieldPtr
	}
	tmp := b.NewTemp(lv.typ, pos)
	b.emitWithSite(&Stmt{Op: OpLoad, Dst: tmp, Ptr: ptr, Pos: pos}, lv.site)
	return tmp
}

// writeLval stores src (may be nil for pointer-free values) into lv.
func (b *Builder) writeLval(lv lval, src *Object, pos token.Pos) {
	if lv.direct {
		if len(lv.ref.Path) == 0 {
			if src != nil {
				b.EmitCopy(lv.ref.Obj, Ref{Obj: src}, pos)
			}
			return
		}
		if src == nil {
			return
		}
		// tmp = &s.β ; *tmp = src   (forms 1 + 5)
		tmp := b.NewTemp(types.PointerTo(lv.typ), pos)
		b.EmitAddrOf(tmp, lv.ref, pos)
		b.EmitStore(tmp, src, pos)
		return
	}
	ptr := lv.ptr
	if len(lv.path) > 0 {
		fieldPtr := b.NewTemp(types.PointerTo(lv.typ), pos)
		b.emitWithSite(&Stmt{Op: OpAddrField, Dst: fieldPtr, Ptr: lv.ptr, Path: lv.path, Pos: pos}, lv.site)
		ptr = fieldPtr
	}
	// A store through a pointer is a deref even when the stored value
	// carries no pointers; keep the statement so the site is counted.
	b.emitWithSite(&Stmt{Op: OpStore, Ptr: ptr, Src: src, Pos: pos}, lv.site)
}

// --- rvalues ---

// value lowers e for its value, returning a direct reference when one
// exists. ok is false when the value cannot carry address information
// (integer literals, comparison results, …).
func (b *Builder) value(e ast.Expr) (Ref, bool) {
	switch e := e.(type) {
	case nil:
		return Ref{}, false

	case *ast.Paren:
		return b.value(e.X)

	case *ast.IntLit, *ast.FloatLit, *ast.CharLit:
		return Ref{}, false

	case *ast.StringLit:
		obj := b.newObject(fmt.Sprintf("strlit@%s", e.Pos()), ObjString,
			types.ArrayOf(b.sema.Universe.Basic(types.Char), int64(len(e.Value)+1)), e.Pos())
		tmp := b.NewTemp(types.PointerTo(b.sema.Universe.Basic(types.Char)), e.Pos())
		b.EmitAddrOf(tmp, Ref{Obj: obj}, e.Pos())
		return Ref{Obj: tmp}, true

	case *ast.Ident:
		sym := b.sema.Info.Uses[e]
		if sym == nil {
			return Ref{}, false
		}
		o := b.objectOf(sym)
		if o.Type != nil && (o.Type.Kind == types.Array || o.Type.Kind == types.Func) {
			tmp := b.NewTemp(o.Type.Decay(), e.Pos())
			b.EmitAddrOf(tmp, Ref{Obj: o}, e.Pos())
			return Ref{Obj: tmp}, true
		}
		return Ref{Obj: o}, true

	case *ast.Unary:
		return b.valueUnary(e)

	case *ast.Postfix:
		lv := b.lvalue(e.X)
		old := b.readLval(lv, e.Pos())
		res := b.NewTemp(lv.typ, e.Pos())
		if old != nil {
			b.EmitPtrArith(res, old, e.Pos())
		}
		b.writeLval(lv, res, e.Pos())
		if old == nil {
			return Ref{}, false
		}
		return Ref{Obj: old}, true

	case *ast.Member, *ast.Index:
		lv := b.lvalue(e)
		obj := b.readLval(lv, e.Pos())
		if obj == nil {
			return Ref{}, false
		}
		return Ref{Obj: obj}, true

	case *ast.Binary:
		return b.valueBinary(e)

	case *ast.Assign:
		return b.valueAssign(e)

	case *ast.Cond:
		b.value(e.C)
		av := b.valueObj(e.A)
		bv := b.valueObj(e.B)
		if av == nil && bv == nil {
			return Ref{}, false
		}
		tmp := b.NewTemp(b.exprType(e), e.Pos())
		if av != nil {
			b.EmitCopy(tmp, Ref{Obj: av}, e.Pos())
		}
		if bv != nil {
			b.EmitCopy(tmp, Ref{Obj: bv}, e.Pos())
		}
		return Ref{Obj: tmp}, true

	case *ast.Comma:
		b.value(e.X)
		return b.value(e.Y)

	case *ast.Call:
		obj := b.lowerCall(e, nil)
		if obj == nil {
			return Ref{}, false
		}
		return Ref{Obj: obj}, true

	case *ast.Cast:
		return b.valueCast(e)

	case *ast.SizeofExpr, *ast.SizeofType:
		// sizeof does not evaluate its operand.
		return Ref{}, false
	}
	return Ref{}, false
}

// valueObj materializes the value of e as a top-level object (or nil).
func (b *Builder) valueObj(e ast.Expr) *Object {
	ref, ok := b.value(e)
	if !ok {
		return nil
	}
	if len(ref.Path) == 0 {
		return ref.Obj
	}
	tmp := b.NewTemp(b.exprType(e), e.Pos())
	b.EmitCopy(tmp, ref, e.Pos())
	return tmp
}

func (b *Builder) valueUnary(e *ast.Unary) (Ref, bool) {
	pos := e.Pos()
	switch e.Op {
	case token.AND:
		lv := b.lvalue(e.X)
		return Ref{Obj: b.addrOfLval(lv, pos)}, true

	case token.MUL:
		// Calling through a function pointer is handled in lowerCall;
		// here *p is a load.
		lv := b.lvalue(e)
		obj := b.readLval(lv, pos)
		if obj == nil {
			return Ref{}, false
		}
		return Ref{Obj: obj}, true

	case token.INC, token.DEC:
		lv := b.lvalue(e.X)
		old := b.readLval(lv, pos)
		res := b.NewTemp(lv.typ, pos)
		if old != nil {
			b.EmitPtrArith(res, old, pos)
		}
		b.writeLval(lv, res, pos)
		if old == nil {
			return Ref{}, false
		}
		return Ref{Obj: res}, true

	case token.ADD, token.SUB, token.TILDE:
		// Arithmetic on a (possibly pointer-carrying) value: smear.
		src := b.valueObj(e.X)
		if src == nil {
			return Ref{}, false
		}
		tmp := b.NewTemp(b.exprType(e), pos)
		b.EmitPtrArith(tmp, src, pos)
		return Ref{Obj: tmp}, true

	case token.NOT:
		b.value(e.X)
		return Ref{}, false
	}
	return Ref{}, false
}

func (b *Builder) valueBinary(e *ast.Binary) (Ref, bool) {
	pos := e.Pos()
	switch e.Op {
	case token.LAND, token.LOR, token.EQL, token.NEQ,
		token.LSS, token.GTR, token.LEQ, token.GEQ:
		// Comparison and logical results carry no addresses.
		b.value(e.X)
		b.value(e.Y)
		return Ref{}, false
	}
	// Arithmetic and bitwise operators: the result may encode an address
	// derived from either operand (Assumption 1).
	xo := b.valueObj(e.X)
	yo := b.valueObj(e.Y)
	if xo == nil && yo == nil {
		return Ref{}, false
	}
	tmp := b.NewTemp(b.exprType(e), pos)
	if xo != nil {
		b.EmitPtrArith(tmp, xo, pos)
	}
	if yo != nil {
		b.EmitPtrArith(tmp, yo, pos)
	}
	return Ref{Obj: tmp}, true
}

func (b *Builder) valueAssign(e *ast.Assign) (Ref, bool) {
	pos := e.Pos()
	if e.Op == token.ASSIGN {
		// Allocation hint: p = malloc(n).
		if call, ok := ast.Unparen(e.R).(*ast.Call); ok && b.allocatorCall(call) {
			lt := b.exprType(e.L).Decay()
			var hint *types.Type
			if lt.Kind == types.Ptr {
				hint = lt.Elem
			}
			obj := b.lowerCall(call, hint)
			lv := b.lvalue(e.L)
			b.writeLval(lv, obj, pos)
			if obj == nil {
				return Ref{}, false
			}
			return Ref{Obj: obj}, true
		}
		src := b.valueObj(e.R)
		lv := b.lvalue(e.L)
		b.writeLval(lv, src, pos)
		if src == nil {
			return Ref{}, false
		}
		return Ref{Obj: src}, true
	}
	// Compound assignment: read-modify-write with smearing.
	lv := b.lvalue(e.L)
	old := b.readLval(lv, pos)
	ro := b.valueObj(e.R)
	res := b.NewTemp(lv.typ, pos)
	any := false
	if old != nil {
		b.EmitPtrArith(res, old, pos)
		any = true
	}
	if ro != nil {
		b.EmitPtrArith(res, ro, pos)
		any = true
	}
	b.writeLval(lv, res, pos)
	if !any {
		return Ref{}, false
	}
	return Ref{Obj: res}, true
}

func (b *Builder) valueCast(e *ast.Cast) (Ref, bool) {
	pos := e.Pos()
	if e.T.IsVoid() {
		b.value(e.X)
		return Ref{}, false
	}
	// Allocation hint: (struct S *)malloc(n).
	if call, ok := ast.Unparen(e.X).(*ast.Call); ok && b.allocatorCall(call) {
		var hint *types.Type
		if e.T.Kind == types.Ptr {
			hint = e.T.Elem
		}
		obj := b.lowerCall(call, hint)
		if obj == nil {
			return Ref{}, false
		}
		tmp := b.NewTemp(e.T, pos)
		b.emit(&Stmt{Op: OpCopy, Dst: tmp, Src: obj, Cast: e.T, Pos: pos})
		return Ref{Obj: tmp}, true
	}
	src, ok := b.value(e.X)
	if !ok {
		return Ref{}, false
	}
	// Materialize into a temp of the cast type so that downstream uses
	// see the casted declared type; this is where type mismatches enter
	// the system, exactly like the paper's (τ) annotations.
	tmp := b.NewTemp(e.T, pos)
	b.emit(&Stmt{Op: OpCopy, Dst: tmp, Src: src.Obj, Path: src.Path, Cast: e.T, Pos: pos})
	return Ref{Obj: tmp}, true
}

// allocatorCall reports whether the call is a direct call to an allocator.
func (b *Builder) allocatorCall(call *ast.Call) bool {
	if b.cfg.Summarizer == nil {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	sym := b.sema.Info.Uses[id]
	if sym == nil || sym.Kind != sema.SymFunc || sym.Def != nil {
		return false
	}
	return b.cfg.Summarizer.IsAllocator(sym.Name)
}

// lowerCall lowers a call expression and returns the result object (nil for
// void or pointer-free results). allocHint types the heap block for
// allocator calls.
func (b *Builder) lowerCall(e *ast.Call, allocHint *types.Type) *Object {
	pos := e.Pos()

	// Strip *s around a function-pointer callee: (*fp)() ≡ fp().
	fun := ast.Unparen(e.Fun)
	for {
		u, ok := fun.(*ast.Unary)
		if !ok || u.Op != token.MUL {
			break
		}
		t := b.exprType(u.X).Decay()
		if t.Kind == types.Ptr && (t.Elem.Kind == types.Func ||
			t.Elem.Kind == types.Ptr && t.Elem.Elem.Kind == types.Func) {
			fun = ast.Unparen(u.X)
			continue
		}
		break
	}

	// Direct allocator call: allocation-site pseudo-variable.
	if b.allocatorCall(e) {
		var args []*Object
		for _, a := range e.Args {
			args = append(args, b.valueObj(a))
		}
		id := ast.Unparen(e.Fun).(*ast.Ident)
		name := id.Name
		heap := b.NewHeap(fmt.Sprintf("%s@%s", name, pos), allocHint, pos)
		res := b.NewTemp(b.exprType(e), pos)
		b.EmitAddrOf(res, Ref{Obj: heap}, pos)
		b.cfg.Summarizer.EmitAllocEffects(b, name, res, args, pos)
		return res
	}

	// Callee pointer object.
	var calleePtr *Object
	if id, ok := fun.(*ast.Ident); ok {
		if sym := b.sema.Info.Uses[id]; sym != nil && sym.Kind == sema.SymFunc {
			fnObj := b.objectOf(sym)
			calleePtr = b.NewTemp(types.PointerTo(sym.Type), pos)
			b.EmitAddrOf(calleePtr, Ref{Obj: fnObj}, pos)
		}
	}
	if calleePtr == nil {
		calleePtr = b.valueObj(fun)
		if calleePtr == nil {
			calleePtr = b.NewTemp(b.exprType(fun), pos)
		}
	}

	// Arguments.
	var args []*Object
	for _, a := range e.Args {
		args = append(args, b.valueObj(a))
	}

	// Result.
	var res *Object
	if rt := b.exprType(e); !rt.IsVoid() {
		res = b.NewTemp(rt, pos)
	}
	b.emit(&Stmt{Op: OpCall, Dst: res, Ptr: calleePtr, Args: args, Pos: pos})
	return res
}

// --- statements ---

func (b *Builder) lowerStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		b.value(s.X)
	case *ast.Block:
		for _, st := range s.List {
			b.lowerStmt(st)
		}
	case *ast.DeclStmt:
		for _, d := range s.Decls {
			vd, ok := d.(*ast.VarDecl)
			if !ok || vd.Init == nil {
				continue
			}
			sym := b.sema.Info.Defs[d]
			if sym == nil {
				continue
			}
			// Allocation hint for T *p = malloc(n).
			if call, ok2 := vd.Init.(ast.Expr); ok2 {
				if c, ok3 := ast.Unparen(call).(*ast.Call); ok3 && b.allocatorCall(c) {
					var hint *types.Type
					if sym.Type.Kind == types.Ptr {
						hint = sym.Type.Elem
					}
					obj := b.lowerCall(c, hint)
					if obj != nil {
						b.EmitCopy(b.objectOf(sym), Ref{Obj: obj}, vd.Pos())
					}
					continue
				}
			}
			b.lowerInit(Ref{Obj: b.objectOf(sym)}, sym.Type, vd.Init)
		}
	case *ast.Empty:
	case *ast.If:
		b.value(s.Cond)
		b.lowerStmt(s.Then)
		b.lowerStmt(s.Else)
	case *ast.While:
		b.value(s.Cond)
		b.lowerStmt(s.Body)
	case *ast.DoWhile:
		b.lowerStmt(s.Body)
		b.value(s.Cond)
	case *ast.For:
		if s.InitDecl != nil {
			b.lowerStmt(s.InitDecl)
		} else {
			b.value(s.Init)
		}
		b.value(s.Cond)
		b.value(s.Post)
		b.lowerStmt(s.Body)
	case *ast.Switch:
		b.value(s.Tag)
		b.lowerStmt(s.Body)
	case *ast.Case:
		for _, st := range s.Body {
			b.lowerStmt(st)
		}
	case *ast.Return:
		if s.Expr != nil {
			src, ok := b.value(s.Expr)
			if ok && b.fn != nil && b.fn.Retval != nil {
				b.EmitCopy(b.fn.Retval, src, s.Pos())
			}
		}
	case *ast.Label:
		b.lowerStmt(s.Stmt)
	case *ast.Break, *ast.Continue, *ast.Goto:
	}
}

// lowerInit lowers an initializer into assignments against dst (a direct
// reference with the declared type t).
func (b *Builder) lowerInit(dst Ref, t *types.Type, in ast.Init) {
	switch in := in.(type) {
	case *ast.InitList:
		switch {
		case t.IsRecord() && !t.Record.Union:
			fields := t.Record.Fields
			for i, item := range in.Items {
				if i >= len(fields) {
					break
				}
				b.lowerInit(Ref{Obj: dst.Obj, Path: dst.Path.Extend(fields[i].Name)}, fields[i].Type, item)
			}
		case t.IsRecord(): // union: first member
			if len(t.Record.Fields) > 0 && len(in.Items) > 0 {
				f := t.Record.Fields[0]
				b.lowerInit(Ref{Obj: dst.Obj, Path: dst.Path.Extend(f.Name)}, f.Type, in.Items[0])
			}
		case t.Kind == types.Array:
			// One representative element: all items land on it.
			for _, item := range in.Items {
				b.lowerInit(dst, t.Elem, item)
			}
		default:
			if len(in.Items) > 0 {
				b.lowerInit(dst, t, in.Items[0])
			}
		}
	case ast.Expr:
		src := b.valueObj(in)
		if src == nil {
			return
		}
		lv := lval{direct: true, ref: dst, typ: t}
		b.writeLval(lv, src, in.Pos())
	}
}
