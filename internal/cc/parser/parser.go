// Package parser implements a recursive-descent parser for the C subset
// accepted by this front end (C89 declarations and statements, typedefs,
// structs/unions/enums with bit-fields, function prototypes and definitions,
// full expression grammar with casts).
//
// C cannot be parsed without typedef knowledge, so the parser maintains
// scoped name tables and resolves all declaration types to *types.Type as it
// goes. Enum constants are folded to integer literals at parse time.
package parser

import (
	"fmt"

	"repro/internal/cc/ast"
	"repro/internal/cc/layout"
	"repro/internal/cc/lit"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// Config supplies shared state to the parser.
type Config struct {
	// Universe allocates record types; required so that all files of a
	// program share one type universe.
	Universe *types.Universe
	// Layout evaluates sizeof in constant expressions (LP64 if nil).
	Layout *layout.Engine
}

// Parse parses one preprocessed token stream into a file AST. Parse takes
// ownership of toks: it rewrites keyword tokens in place, so the caller
// must not use the slice afterwards (pp.Process returns a fresh one on
// every call).
func Parse(name string, toks []token.Token, cfg Config) (*ast.File, error) {
	p := newParser(name, toks, cfg)
	file := p.parseFile()
	if len(p.errs) > 0 {
		return file, p.errs[0]
	}
	return file, nil
}

// bailout is used for panic-based error recovery within one declaration.
type bailout struct{}

type nameKind int

const (
	nameOrdinary nameKind = iota
	nameTypedef
)

type scope struct {
	names map[string]nameKind
	tdefs map[string]*types.Type
	tags  map[string]*types.Type
	econs map[string]int64
}

func newScope() *scope {
	return &scope{
		names: make(map[string]nameKind),
		tdefs: make(map[string]*types.Type),
		tags:  make(map[string]*types.Type),
		econs: make(map[string]int64),
	}
}

// Parser holds parse state for one translation unit.
type Parser struct {
	name   string
	toks   []token.Token
	i      int
	u      *types.Universe
	lay    *layout.Engine
	scopes []*scope
	errs   []error
}

func newParser(name string, toks []token.Token, cfg Config) *Parser {
	u := cfg.Universe
	if u == nil {
		u = types.NewUniverse()
	}
	lay := cfg.Layout
	if lay == nil {
		lay = layout.New(nil)
	}
	// Resolve keywords (the preprocessor leaves them as IDENT), in place:
	// the parser owns toks.
	for i := range toks {
		if toks[i].Kind == token.IDENT {
			toks[i].Kind = token.LookupKeyword(toks[i].Text)
		}
	}
	return &Parser{
		name:   name,
		toks:   toks,
		u:      u,
		lay:    lay,
		scopes: []*scope{newScope()},
	}
}

// --- token plumbing ---

func (p *Parser) cur() token.Token {
	if p.i < len(p.toks) {
		return p.toks[p.i]
	}
	return token.Token{Kind: token.EOF}
}

func (p *Parser) peek(n int) token.Token {
	if p.i+n < len(p.toks) {
		return p.toks[p.i+n]
	}
	return token.Token{Kind: token.EOF}
}

func (p *Parser) next() token.Token {
	t := p.cur()
	if p.i < len(p.toks) {
		p.i++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if !p.at(k) {
		p.fatalf("expected %q, found %q", k.String(), p.cur().String())
	}
	return p.next()
}

func (p *Parser) errorf(format string, args ...interface{}) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
}

func (p *Parser) fatalf(format string, args ...interface{}) {
	p.errorf(format, args...)
	panic(bailout{})
}

// --- scopes ---

func (p *Parser) pushScope() { p.scopes = append(p.scopes, newScope()) }
func (p *Parser) popScope()  { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *Parser) top() *scope { return p.scopes[len(p.scopes)-1] }

func (p *Parser) declareName(name string, k nameKind, t *types.Type) {
	s := p.top()
	s.names[name] = k
	if k == nameTypedef {
		s.tdefs[name] = t
	} else {
		delete(s.tdefs, name)
	}
}

// isTypedefName reports whether name currently denotes a typedef.
func (p *Parser) isTypedefName(name string) bool {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if k, ok := p.scopes[i].names[name]; ok {
			return k == nameTypedef
		}
	}
	return false
}

func (p *Parser) typedefType(name string) *types.Type {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if t, ok := p.scopes[i].tdefs[name]; ok {
			return t
		}
		if _, ok := p.scopes[i].names[name]; ok {
			return nil
		}
	}
	return nil
}

func (p *Parser) lookupTag(tag string) *types.Type {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if t, ok := p.scopes[i].tags[tag]; ok {
			return t
		}
	}
	return nil
}

func (p *Parser) enumConst(name string) (int64, bool) {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i].econs[name]; ok {
			return v, true
		}
		if _, ok := p.scopes[i].names[name]; ok {
			return 0, false
		}
	}
	return 0, false
}

// --- top level ---

func (p *Parser) parseFile() *ast.File {
	file := &ast.File{Name: p.name}
	for !p.at(token.EOF) {
		decls := p.parseExternalDecl()
		file.Decls = append(file.Decls, decls...)
	}
	return file
}

// parseExternalDecl parses one external declaration (or function
// definition), with panic-based recovery to the next ';' or '}'.
func (p *Parser) parseExternalDecl() (decls []ast.Decl) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			// Resynchronize: skip to just past the next ';' or '}'.
			depth := 0
			for !p.at(token.EOF) {
				switch p.cur().Kind {
				case token.LBRACE:
					depth++
				case token.RBRACE:
					depth--
					if depth <= 0 {
						p.next()
						return
					}
				case token.SEMICOLON:
					if depth == 0 {
						p.next()
						return
					}
				}
				p.next()
			}
		}
	}()
	if p.accept(token.SEMICOLON) {
		return nil
	}
	return p.parseDeclaration(true)
}

// parseDeclaration parses a full declaration (specifiers plus declarator
// list). When topLevel is set, a '{' after a function declarator starts a
// function definition.
func (p *Parser) parseDeclaration(topLevel bool) []ast.Decl {
	pos := p.cur().Pos
	specs := p.parseDeclSpecs(true)

	// Tag-only declaration: "struct S {...};" or "enum E {...};".
	if p.accept(token.SEMICOLON) {
		if specs.typ != nil && (specs.typ.IsRecord() || specs.typ.Kind == types.Enum) {
			return []ast.Decl{&ast.TagDecl{P: pos, Type: specs.typ}}
		}
		return nil
	}

	var decls []ast.Decl
	first := true
	for {
		dpos := p.cur().Pos
		name, typ := p.parseDeclarator(specs.qualified())
		if name == "" {
			p.fatalf("declarator requires a name")
		}

		if first && topLevel && typ.Kind == types.Func &&
			(p.at(token.LBRACE) || typ.Sig.OldStyle && p.isTypeSpecStart()) {
			// Function definition. An old-style (K&R) definition may
			// carry parameter declarations between the declarator and
			// the body:  int f(a, b) int a; char *b; { ... }
			if !p.at(token.LBRACE) {
				p.parseKRParamDecls(typ.Sig)
			}
			p.declareName(name, nameOrdinary, nil)
			fd := &ast.FuncDecl{P: dpos, Name: name, Type: typ, Storage: specs.storage}
			p.pushScope()
			for _, prm := range typ.Sig.Params {
				if prm.Name != "" {
					p.declareName(prm.Name, nameOrdinary, nil)
				}
			}
			fd.Body = p.parseBlock()
			p.popScope()
			return []ast.Decl{fd}
		}
		first = false

		if specs.storage == ast.StorageTypedef {
			p.declareName(name, nameTypedef, typ)
			decls = append(decls, &ast.TypedefDecl{P: dpos, Name: name, Type: types.WithTypedefName(typ, name)})
		} else {
			p.declareName(name, nameOrdinary, nil)
			vd := &ast.VarDecl{P: dpos, Name: name, Type: typ, Storage: specs.storage}
			if p.accept(token.ASSIGN) {
				vd.Init = p.parseInitializer()
				// Complete T a[] = {...} from the initializer.
				if typ.Kind == types.Array && typ.ArrayLen < 0 {
					if il, ok := vd.Init.(*ast.InitList); ok {
						vd.Type = types.ArrayOf(typ.Elem, int64(len(il.Items)))
					} else if sl, ok := vd.Init.(*ast.StringLit); ok {
						vd.Type = types.ArrayOf(typ.Elem, int64(len(sl.Value)+1))
					}
				}
			}
			decls = append(decls, vd)
		}

		if p.accept(token.COMMA) {
			continue
		}
		p.expect(token.SEMICOLON)
		break
	}
	return decls
}

// declSpecs is the result of parsing declaration specifiers.
type declSpecs struct {
	storage ast.StorageClass
	qual    types.Qualifiers
	typ     *types.Type
}

func (d *declSpecs) qualified() *types.Type {
	return types.Qualified(d.typ, d.qual)
}

// isTypeSpecStart reports whether the current token can begin declaration
// specifiers.
func (p *Parser) isTypeSpecStart() bool {
	t := p.cur()
	switch t.Kind {
	case token.VOID, token.CHARKW, token.SHORT, token.INTKW, token.LONG,
		token.FLOATKW, token.DOUBLE, token.SIGNED, token.UNSIGNED,
		token.STRUCT, token.UNION, token.ENUM,
		token.CONST, token.VOLATILE,
		token.TYPEDEF, token.EXTERN, token.STATIC, token.AUTO, token.REGISTER,
		token.INLINE:
		return true
	case token.IDENT:
		return p.isTypedefName(t.Text)
	}
	return false
}

// isTypeNameStart is like isTypeSpecStart but excludes storage classes
// (used for casts and sizeof).
func (p *Parser) isTypeNameStart() bool {
	t := p.cur()
	switch t.Kind {
	case token.VOID, token.CHARKW, token.SHORT, token.INTKW, token.LONG,
		token.FLOATKW, token.DOUBLE, token.SIGNED, token.UNSIGNED,
		token.STRUCT, token.UNION, token.ENUM, token.CONST, token.VOLATILE:
		return true
	case token.IDENT:
		return p.isTypedefName(t.Text)
	}
	return false
}

// parseDeclSpecs parses declaration specifiers. allowStorage permits
// storage-class specifiers (false inside type names and struct fields).
func (p *Parser) parseDeclSpecs(allowStorage bool) declSpecs {
	var d declSpecs
	var base types.Kind // accumulated basic kind
	var nShort, nLong int
	var signed, unsigned bool
	sawBasic := false

	setStorage := func(s ast.StorageClass) {
		if !allowStorage {
			p.fatalf("storage class not allowed here")
		}
		if d.storage != ast.StorageNone {
			p.errorf("multiple storage classes")
		}
		d.storage = s
	}

loop:
	for {
		t := p.cur()
		switch t.Kind {
		case token.TYPEDEF:
			p.next()
			setStorage(ast.StorageTypedef)
		case token.EXTERN:
			p.next()
			setStorage(ast.StorageExtern)
		case token.STATIC:
			p.next()
			setStorage(ast.StorageStatic)
		case token.AUTO:
			p.next()
			setStorage(ast.StorageAuto)
		case token.REGISTER:
			p.next()
			setStorage(ast.StorageRegister)
		case token.INLINE:
			p.next() // accepted and ignored
		case token.CONST:
			p.next()
			d.qual |= types.QualConst
		case token.VOLATILE:
			p.next()
			d.qual |= types.QualVolatile
		case token.VOID:
			p.next()
			d.typ = p.u.Basic(types.Void)
			sawBasic = true
		case token.CHARKW:
			p.next()
			base = types.Char
			sawBasic = true
		case token.SHORT:
			p.next()
			nShort++
			sawBasic = true
		case token.LONG:
			p.next()
			nLong++
			sawBasic = true
		case token.INTKW:
			p.next()
			if base == 0 {
				base = types.Int
			}
			sawBasic = true
		case token.FLOATKW:
			p.next()
			base = types.Float
			sawBasic = true
		case token.DOUBLE:
			p.next()
			base = types.Double
			sawBasic = true
		case token.SIGNED:
			p.next()
			signed = true
			sawBasic = true
		case token.UNSIGNED:
			p.next()
			unsigned = true
			sawBasic = true
		case token.STRUCT, token.UNION:
			d.typ = p.parseRecordSpec(t.Kind == token.UNION)
			sawBasic = true
		case token.ENUM:
			d.typ = p.parseEnumSpec()
			sawBasic = true
		case token.IDENT:
			// A typedef name is a type specifier only if we have not
			// seen any other type specifier yet.
			if !sawBasic && d.typ == nil && p.isTypedefName(t.Text) {
				p.next()
				d.typ = p.typedefType(t.Text)
				sawBasic = true
				continue
			}
			break loop
		default:
			break loop
		}
	}

	if d.typ == nil {
		d.typ = p.combineBasic(base, nShort, nLong, signed, unsigned, sawBasic)
	}
	return d
}

// combineBasic resolves the basic-type specifier combination.
func (p *Parser) combineBasic(base types.Kind, nShort, nLong int, signed, unsigned, sawBasic bool) *types.Type {
	if !sawBasic {
		// Implicit int (K&R style); accepted with no diagnostic since
		// 1990s benchmark code relies on it.
		return p.u.Basic(types.Int)
	}
	k := types.Int
	switch {
	case base == types.Char:
		switch {
		case unsigned:
			k = types.UChar
		case signed:
			k = types.SChar
		default:
			k = types.Char
		}
	case base == types.Float:
		k = types.Float
	case base == types.Double:
		if nLong > 0 {
			k = types.LongDouble
		} else {
			k = types.Double
		}
	case nShort > 0:
		if unsigned {
			k = types.UShort
		} else {
			k = types.Short
		}
	case nLong >= 2:
		if unsigned {
			k = types.ULongLong
		} else {
			k = types.LongLong
		}
	case nLong == 1:
		if unsigned {
			k = types.ULong
		} else {
			k = types.Long
		}
	default:
		if unsigned {
			k = types.UInt
		} else {
			k = types.Int
		}
	}
	return p.u.Basic(k)
}

// parseRecordSpec parses struct-or-union specifier.
func (p *Parser) parseRecordSpec(isUnion bool) *types.Type {
	p.next() // struct / union
	tag := ""
	if p.at(token.IDENT) {
		tag = p.next().Text
	}

	if !p.at(token.LBRACE) {
		if tag == "" {
			p.fatalf("anonymous struct/union requires a definition")
		}
		if t := p.lookupTag(tag); t != nil {
			if (t.Kind == types.Union) != isUnion {
				p.errorf("tag %q redeclared as a different kind", tag)
			}
			return t
		}
		t := p.u.NewRecord(tag, isUnion)
		p.top().tags[tag] = t
		return t
	}

	// Definition.
	var t *types.Type
	if tag != "" {
		if existing, ok := p.top().tags[tag]; ok && !existing.Record.Complete {
			t = existing
		} else if ok && existing.Record.Complete {
			p.errorf("redefinition of tag %q", tag)
			t = p.u.NewRecord(tag, isUnion)
			p.top().tags[tag] = t
		}
	}
	if t == nil {
		t = p.u.NewRecord(tag, isUnion)
		if tag != "" {
			p.top().tags[tag] = t
		}
	}

	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		p.parseFieldDecl(t.Record)
	}
	p.expect(token.RBRACE)
	t.Record.Complete = true
	return t
}

// parseFieldDecl parses one struct/union member declaration line.
func (p *Parser) parseFieldDecl(rec *types.Record) {
	specs := p.parseDeclSpecs(false)
	if p.accept(token.SEMICOLON) {
		// Anonymous struct/union member: flatten its fields in
		// (a common extension; harmless for ISO code).
		if specs.typ != nil && specs.typ.IsRecord() {
			rec.Fields = append(rec.Fields, specs.typ.Record.Fields...)
			return
		}
		p.errorf("declaration does not declare anything")
		return
	}
	for {
		name := ""
		typ := specs.qualified()
		if !p.at(token.COLON) {
			name, typ = p.parseDeclarator(specs.qualified())
		}
		width := -1
		if p.accept(token.COLON) {
			width = int(p.parseConstExpr())
		}
		rec.Fields = append(rec.Fields, types.Field{Name: name, Type: typ, BitWidth: width})
		if p.accept(token.COMMA) {
			continue
		}
		p.expect(token.SEMICOLON)
		return
	}
}

// parseEnumSpec parses an enum specifier, registering enumerator constants.
func (p *Parser) parseEnumSpec() *types.Type {
	p.next() // enum
	tag := ""
	if p.at(token.IDENT) {
		tag = p.next().Text
	}
	t := p.u.NewEnum(tag)
	if tag != "" {
		if old := p.lookupTag(tag); old != nil && !p.at(token.LBRACE) {
			return old
		}
		p.top().tags[tag] = t
	}
	if !p.at(token.LBRACE) {
		return t
	}
	p.expect(token.LBRACE)
	var val int64
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		name := p.expect(token.IDENT).Text
		if p.accept(token.ASSIGN) {
			val = p.parseConstExpr()
		}
		p.top().econs[name] = val
		p.declareName(name, nameOrdinary, nil)
		val++
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RBRACE)
	return t
}

// --- declarators ---

// parseDeclarator parses a (possibly abstract) declarator against base and
// returns the declared name ("" when abstract) and the full type.
func (p *Parser) parseDeclarator(base *types.Type) (string, *types.Type) {
	// Pointer part: each '*' wraps the base going left to right.
	for p.accept(token.MUL) {
		var q types.Qualifiers
		for {
			if p.accept(token.CONST) {
				q |= types.QualConst
				continue
			}
			if p.accept(token.VOLATILE) {
				q |= types.QualVolatile
				continue
			}
			break
		}
		base = types.Qualified(types.PointerTo(base), q)
	}

	// Direct declarator core.
	var name string
	var inner func(*types.Type) (string, *types.Type) // deferred inner declarator
	switch {
	case p.at(token.IDENT) && !p.isTypedefName(p.cur().Text):
		name = p.next().Text
	case p.at(token.IDENT):
		// A typedef name in declarator position: treat as the declared
		// identifier (shadows the typedef), matching C scoping rules.
		name = p.next().Text
	case p.at(token.LPAREN) && p.parenStartsDeclarator():
		p.next()
		start := p.i
		// Parse the inner declarator but defer type construction until
		// the suffixes are known: first pass to find the extent.
		depth := 1
		for depth > 0 && !p.at(token.EOF) {
			switch p.cur().Kind {
			case token.LPAREN:
				depth++
			case token.RPAREN:
				depth--
			}
			if depth > 0 {
				p.next()
			}
		}
		end := p.i
		p.expect(token.RPAREN)
		inner = func(b *types.Type) (string, *types.Type) {
			save := p.i
			p.i = start
			n, t := p.parseDeclarator(b)
			if p.i != end {
				p.errorf("malformed parenthesized declarator")
			}
			p.i = save
			return n, t
		}
	default:
		// Abstract declarator with no core (e.g. "int *" or "int []").
	}

	// Suffixes, applied right-to-left onto base.
	type suffix struct {
		isArray bool
		alen    int64
		sig     *types.Signature
	}
	var suffixes []suffix
	for {
		if p.accept(token.LBRACK) {
			n := int64(-1)
			if !p.at(token.RBRACK) {
				n = p.parseConstExpr()
			}
			p.expect(token.RBRACK)
			suffixes = append(suffixes, suffix{isArray: true, alen: n})
			continue
		}
		if p.at(token.LPAREN) {
			p.next()
			sig := p.parseParamList()
			suffixes = append(suffixes, suffix{sig: sig})
			continue
		}
		break
	}
	for i := len(suffixes) - 1; i >= 0; i-- {
		s := suffixes[i]
		if s.isArray {
			base = types.ArrayOf(base, s.alen)
		} else {
			s.sig.Result = base
			base = &types.Type{Kind: types.Func, Sig: s.sig}
		}
	}

	if inner != nil {
		return inner(base)
	}
	return name, base
}

// parenStartsDeclarator disambiguates "(declarator)" from "(params)" after
// a direct-declarator position: a paren starts a nested declarator when the
// next token is '*', an identifier that is not a typedef name, or another
// '('.
func (p *Parser) parenStartsDeclarator() bool {
	t := p.peek(1)
	switch t.Kind {
	case token.MUL, token.LPAREN:
		return true
	case token.IDENT:
		return !p.isTypedefName(t.Text)
	}
	return false
}

// parseParamList parses a prototype parameter list after '('.
func (p *Parser) parseParamList() *types.Signature {
	sig := &types.Signature{}
	if p.accept(token.RPAREN) {
		sig.OldStyle = true // ()
		return sig
	}
	// (void)
	if p.at(token.VOID) && p.peek(1).Kind == token.RPAREN {
		p.next()
		p.next()
		return sig
	}
	// Old-style identifier list: (a, b, c) — recognized and recorded as
	// unspecified parameters.
	if p.at(token.IDENT) && !p.isTypedefName(p.cur().Text) &&
		(p.peek(1).Kind == token.COMMA || p.peek(1).Kind == token.RPAREN) {
		for {
			name := p.expect(token.IDENT).Text
			sig.Params = append(sig.Params, types.Param{Name: name, Type: p.u.Basic(types.Int)})
			if p.accept(token.COMMA) {
				continue
			}
			break
		}
		p.expect(token.RPAREN)
		sig.OldStyle = true
		return sig
	}
	for {
		if p.accept(token.ELLIPSIS) {
			sig.Variadic = true
			break
		}
		specs := p.parseDeclSpecs(true) // register allowed in params
		name, typ := p.parseDeclarator(specs.qualified())
		// Parameter type adjustment.
		switch typ.Kind {
		case types.Array:
			typ = types.PointerTo(typ.Elem)
		case types.Func:
			typ = types.PointerTo(typ)
		}
		sig.Params = append(sig.Params, types.Param{Name: name, Type: typ})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return sig
}

// parseKRParamDecls parses the parameter declarations of an old-style
// function definition and patches the declared types into the signature
// (undeclared identifier-list parameters stay int, per K&R).
func (p *Parser) parseKRParamDecls(sig *types.Signature) {
	for p.isTypeSpecStart() && !p.at(token.LBRACE) {
		specs := p.parseDeclSpecs(true)
		for {
			name, typ := p.parseDeclarator(specs.qualified())
			// Parameter adjustment, as in prototypes.
			switch typ.Kind {
			case types.Array:
				typ = types.PointerTo(typ.Elem)
			case types.Func:
				typ = types.PointerTo(typ)
			}
			patched := false
			for i := range sig.Params {
				if sig.Params[i].Name == name {
					sig.Params[i].Type = typ
					patched = true
					break
				}
			}
			if !patched {
				p.errorf("parameter declaration for %q does not match the identifier list", name)
			}
			if p.accept(token.COMMA) {
				continue
			}
			p.expect(token.SEMICOLON)
			break
		}
	}
}

// parseTypeName parses a type-name (for casts and sizeof).
func (p *Parser) parseTypeName() *types.Type {
	specs := p.parseDeclSpecs(false)
	name, typ := p.parseDeclarator(specs.qualified())
	if name != "" {
		p.errorf("unexpected identifier %q in type name", name)
	}
	return typ
}

// --- initializers ---

func (p *Parser) parseInitializer() ast.Init {
	if p.at(token.LBRACE) {
		pos := p.next().Pos
		il := &ast.InitList{P: pos}
		for !p.at(token.RBRACE) && !p.at(token.EOF) {
			il.Items = append(il.Items, p.parseInitializer())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RBRACE)
		return il
	}
	e := p.parseAssignExpr()
	init, ok := e.(ast.Init)
	if !ok {
		p.fatalf("expression cannot be used as an initializer")
	}
	return init
}

// --- statements ---

func (p *Parser) parseBlock() *ast.Block {
	pos := p.expect(token.LBRACE).Pos
	b := &ast.Block{P: pos}
	p.pushScope()
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		b.List = append(b.List, p.parseStmt())
	}
	p.popScope()
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.SEMICOLON:
		p.next()
		return &ast.Empty{P: pos}
	case token.IF:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		thenS := p.parseStmt()
		var elseS ast.Stmt
		if p.accept(token.ELSE) {
			elseS = p.parseStmt()
		}
		return &ast.If{P: pos, Cond: cond, Then: thenS, Else: elseS}
	case token.WHILE:
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.While{P: pos, Cond: cond, Body: p.parseStmt()}
	case token.DO:
		p.next()
		body := p.parseStmt()
		p.expect(token.WHILE)
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMICOLON)
		return &ast.DoWhile{P: pos, Body: body, Cond: cond}
	case token.FOR:
		p.next()
		p.expect(token.LPAREN)
		f := &ast.For{P: pos}
		p.pushScope()
		if !p.at(token.SEMICOLON) {
			if p.isTypeSpecStart() {
				ds := &ast.DeclStmt{P: p.cur().Pos}
				ds.Decls = p.parseDeclaration(false) // consumes ';'
				f.InitDecl = ds
			} else {
				f.Init = p.parseExpr()
				p.expect(token.SEMICOLON)
			}
		} else {
			p.next()
		}
		if !p.at(token.SEMICOLON) {
			f.Cond = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		if !p.at(token.RPAREN) {
			f.Post = p.parseExpr()
		}
		p.expect(token.RPAREN)
		f.Body = p.parseStmt()
		p.popScope()
		return f
	case token.SWITCH:
		p.next()
		p.expect(token.LPAREN)
		tag := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.Switch{P: pos, Tag: tag, Body: p.parseStmt()}
	case token.CASE:
		p.next()
		e := p.parseCondExpr()
		p.expect(token.COLON)
		c := &ast.Case{P: pos, Expr: e}
		c.Body = p.parseCaseBody()
		return c
	case token.DEFAULT:
		p.next()
		p.expect(token.COLON)
		c := &ast.Case{P: pos}
		c.Body = p.parseCaseBody()
		return c
	case token.BREAK:
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.Break{P: pos}
	case token.CONTINUE:
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.Continue{P: pos}
	case token.RETURN:
		p.next()
		var e ast.Expr
		if !p.at(token.SEMICOLON) {
			e = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		return &ast.Return{P: pos, Expr: e}
	case token.GOTO:
		p.next()
		label := p.expect(token.IDENT).Text
		p.expect(token.SEMICOLON)
		return &ast.Goto{P: pos, Label: label}
	case token.IDENT:
		// Label?
		if p.peek(1).Kind == token.COLON && !p.isTypedefName(p.cur().Text) {
			name := p.next().Text
			p.next() // :
			return &ast.Label{P: pos, Name: name, Stmt: p.parseStmt()}
		}
	}
	if p.isTypeSpecStart() {
		ds := &ast.DeclStmt{P: pos}
		ds.Decls = p.parseDeclaration(false)
		return ds
	}
	e := p.parseExpr()
	p.expect(token.SEMICOLON)
	return &ast.ExprStmt{P: pos, X: e}
}

// parseCaseBody collects the statements following a case/default label up to
// the next label or the end of the switch block.
func (p *Parser) parseCaseBody() []ast.Stmt {
	var list []ast.Stmt
	for {
		switch p.cur().Kind {
		case token.CASE, token.DEFAULT, token.RBRACE, token.EOF:
			return list
		}
		list = append(list, p.parseStmt())
	}
}

// --- expressions ---

func (p *Parser) parseExpr() ast.Expr {
	e := p.parseAssignExpr()
	for p.at(token.COMMA) {
		pos := p.next().Pos
		y := p.parseAssignExpr()
		e = &ast.Comma{P: pos, X: e, Y: y}
	}
	return e
}

func (p *Parser) parseAssignExpr() ast.Expr {
	l := p.parseCondExpr()
	if p.cur().Kind.IsAssignOp() {
		op := p.next()
		r := p.parseAssignExpr()
		return &ast.Assign{P: op.Pos, Op: op.Kind, L: l, R: r}
	}
	return l
}

func (p *Parser) parseCondExpr() ast.Expr {
	c := p.parseBinaryExpr(1)
	if p.at(token.QUESTION) {
		pos := p.next().Pos
		a := p.parseExpr()
		p.expect(token.COLON)
		b := p.parseCondExpr()
		return &ast.Cond{P: pos, C: c, A: a, B: b}
	}
	return c
}

func cPrec(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.OR:
		return 3
	case token.XOR:
		return 4
	case token.AND:
		return 5
	case token.EQL, token.NEQ:
		return 6
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return 7
	case token.SHL, token.SHR:
		return 8
	case token.ADD, token.SUB:
		return 9
	case token.MUL, token.QUO, token.REM:
		return 10
	}
	return 0
}

func (p *Parser) parseBinaryExpr(minPrec int) ast.Expr {
	x := p.parseCastExpr()
	for {
		prec := cPrec(p.cur().Kind)
		if prec < minPrec || prec == 0 {
			return x
		}
		op := p.next()
		y := p.parseBinaryExpr(prec + 1)
		x = &ast.Binary{P: op.Pos, Op: op.Kind, X: x, Y: y}
	}
}

func (p *Parser) parseCastExpr() ast.Expr {
	if p.at(token.LPAREN) && p.typeNameAfterParen() {
		pos := p.next().Pos
		t := p.parseTypeName()
		p.expect(token.RPAREN)
		x := p.parseCastExpr()
		return &ast.Cast{P: pos, T: t, X: x}
	}
	return p.parseUnaryExpr()
}

// typeNameAfterParen reports whether '(' is followed by a type name.
func (p *Parser) typeNameAfterParen() bool {
	t := p.peek(1)
	switch t.Kind {
	case token.VOID, token.CHARKW, token.SHORT, token.INTKW, token.LONG,
		token.FLOATKW, token.DOUBLE, token.SIGNED, token.UNSIGNED,
		token.STRUCT, token.UNION, token.ENUM, token.CONST, token.VOLATILE:
		return true
	case token.IDENT:
		return p.isTypedefName(t.Text)
	}
	return false
}

func (p *Parser) parseUnaryExpr() ast.Expr {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.INC, token.DEC:
		op := p.next()
		x := p.parseUnaryExpr()
		return &ast.Unary{P: pos, Op: op.Kind, X: x}
	case token.AND, token.MUL, token.ADD, token.SUB, token.TILDE, token.NOT:
		op := p.next()
		x := p.parseCastExpr()
		return &ast.Unary{P: pos, Op: op.Kind, X: x}
	case token.SIZEOF:
		p.next()
		if p.at(token.LPAREN) && p.typeNameAfterParen() {
			p.next()
			t := p.parseTypeName()
			p.expect(token.RPAREN)
			return &ast.SizeofType{P: pos, T: t}
		}
		return &ast.SizeofExpr{P: pos, X: p.parseUnaryExpr()}
	}
	return p.parsePostfixExpr()
}

func (p *Parser) parsePostfixExpr() ast.Expr {
	x := p.parsePrimaryExpr()
	for {
		pos := p.cur().Pos
		switch p.cur().Kind {
		case token.LBRACK:
			p.next()
			i := p.parseExpr()
			p.expect(token.RBRACK)
			x = &ast.Index{P: pos, X: x, I: i}
		case token.LPAREN:
			p.next()
			call := &ast.Call{P: pos, Fun: x}
			for !p.at(token.RPAREN) && !p.at(token.EOF) {
				call.Args = append(call.Args, p.parseAssignExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
			x = call
		case token.PERIOD:
			p.next()
			name := p.expect(token.IDENT).Text
			x = &ast.Member{P: pos, X: x, Name: name}
		case token.ARROW:
			p.next()
			name := p.expect(token.IDENT).Text
			x = &ast.Member{P: pos, X: x, Name: name, Arrow: true}
		case token.INC, token.DEC:
			op := p.next()
			x = &ast.Postfix{P: pos, Op: op.Kind, X: x}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimaryExpr() ast.Expr {
	t := p.cur()
	pos := t.Pos
	switch t.Kind {
	case token.IDENT:
		p.next()
		if v, ok := p.enumConst(t.Text); ok {
			return &ast.IntLit{P: pos, Text: fmt.Sprintf("%d", v)}
		}
		return &ast.Ident{P: pos, Name: t.Text}
	case token.INT:
		p.next()
		return &ast.IntLit{P: pos, Text: t.Text}
	case token.FLOAT:
		p.next()
		return &ast.FloatLit{P: pos, Text: t.Text}
	case token.CHAR:
		p.next()
		return &ast.CharLit{P: pos, Text: t.Text}
	case token.STRING:
		// Adjacent string literals concatenate.
		var val string
		for p.at(token.STRING) {
			s, err := lit.UnquoteString(p.next().Text)
			if err != nil {
				p.errorf("%v", err)
			}
			val += s
		}
		return &ast.StringLit{P: pos, Value: val}
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.Paren{P: pos, X: x}
	}
	p.fatalf("unexpected token %q in expression", t.String())
	return nil
}

// --- constant expressions ---

// parseConstExpr parses and evaluates an integer constant expression.
func (p *Parser) parseConstExpr() int64 {
	e := p.parseCondExpr()
	v, err := p.evalConst(e)
	if err != nil {
		p.errorf("constant expression: %v", err)
		return 1
	}
	return v
}

func (p *Parser) evalConst(e ast.Expr) (int64, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		info, err := lit.ParseInt(e.Text)
		if err != nil {
			return 0, err
		}
		return int64(info.Value), nil
	case *ast.CharLit:
		return lit.ParseChar(e.Text)
	case *ast.Paren:
		return p.evalConst(e.X)
	case *ast.SizeofType:
		return p.lay.Sizeof(e.T), nil
	case *ast.Cast:
		return p.evalConst(e.X)
	case *ast.Unary:
		v, err := p.evalConst(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case token.SUB:
			return -v, nil
		case token.ADD:
			return v, nil
		case token.TILDE:
			return ^v, nil
		case token.NOT:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("non-constant unary operator %s", e.Op)
	case *ast.Cond:
		c, err := p.evalConst(e.C)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return p.evalConst(e.A)
		}
		return p.evalConst(e.B)
	case *ast.Binary:
		x, err := p.evalConst(e.X)
		if err != nil {
			return 0, err
		}
		y, err := p.evalConst(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case token.ADD:
			return x + y, nil
		case token.SUB:
			return x - y, nil
		case token.MUL:
			return x * y, nil
		case token.QUO:
			if y == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return x / y, nil
		case token.REM:
			if y == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return x % y, nil
		case token.SHL:
			return x << (uint64(y) & 63), nil
		case token.SHR:
			return x >> (uint64(y) & 63), nil
		case token.AND:
			return x & y, nil
		case token.OR:
			return x | y, nil
		case token.XOR:
			return x ^ y, nil
		case token.LAND:
			if x != 0 && y != 0 {
				return 1, nil
			}
			return 0, nil
		case token.LOR:
			if x != 0 || y != 0 {
				return 1, nil
			}
			return 0, nil
		case token.EQL:
			return b2i(x == y), nil
		case token.NEQ:
			return b2i(x != y), nil
		case token.LSS:
			return b2i(x < y), nil
		case token.GTR:
			return b2i(x > y), nil
		case token.LEQ:
			return b2i(x <= y), nil
		case token.GEQ:
			return b2i(x >= y), nil
		}
		return 0, fmt.Errorf("non-constant binary operator %s", e.Op)
	}
	return 0, fmt.Errorf("expression is not constant")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
