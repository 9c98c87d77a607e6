package sema

import (
	"testing"

	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/cc/pp"
	"repro/internal/cc/types"
)

// analyze runs the full front end over the sources (name → text).
func analyze(t *testing.T, srcs map[string]string) *Program {
	t.Helper()
	u := types.NewUniverse()
	var files []*ast.File
	for name, src := range srcs {
		prep := pp.New(pp.Config{})
		toks, err := prep.Process(name, []byte(src))
		if err != nil {
			t.Fatalf("preprocess %s: %v", name, err)
		}
		f, err := parser.Parse(name, toks, parser.Config{Universe: u})
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	prog, err := Analyze(files, u, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return prog
}

func analyzeOne(t *testing.T, src string) *Program {
	return analyze(t, map[string]string{"t.c": src})
}

// uses returns the symbols that the uses of name resolve to, in source
// order (nil for a use analysis left unresolved).
func uses(prog *Program, name string) []*Symbol {
	var out []*Symbol
	for _, f := range prog.Files {
		ast.Walk(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				out = append(out, prog.Sym(id.Sym))
			}
			return true
		})
	}
	return out
}

// findFunc returns the definition of the named function.
func findFunc(t *testing.T, prog *Program, name string) *ast.FuncDecl {
	t.Helper()
	for _, s := range prog.Funcs {
		if s.Name == name {
			return s.Def
		}
	}
	t.Fatalf("function %q not found", name)
	return nil
}

func TestGlobalSymbols(t *testing.T) {
	prog := analyzeOne(t, "int g;\nint main(void) { return g; }")
	sym := prog.LookupGlobal("g")
	if sym == nil || sym.Kind != SymVar || !sym.Global {
		t.Fatalf("g = %+v", sym)
	}
	if len(prog.Funcs) != 1 || prog.Funcs[0].Name != "main" {
		t.Errorf("funcs = %v", prog.Funcs)
	}
}

func TestCrossFileExternMerge(t *testing.T) {
	prog := analyze(t, map[string]string{
		"a.c": "int shared; int afunc(void) { return shared; }",
		"b.c": "extern int shared; int bfunc(void) { return shared; }",
	})
	shared := uses(prog, "shared")
	if len(shared) != 2 {
		t.Fatalf("got %d uses of shared", len(shared))
	}
	if shared[0] == nil || shared[0] != shared[1] {
		t.Error("extern uses should resolve to one symbol")
	}
}

func TestStaticInternalLinkage(t *testing.T) {
	prog := analyze(t, map[string]string{
		"a.c": "static int priv; int af(void) { return priv; }",
		"b.c": "static int priv; int bf(void) { return priv; }",
	})
	seen := make(map[*Symbol]bool)
	for _, s := range uses(prog, "priv") {
		seen[s] = true
	}
	if len(seen) != 2 {
		t.Errorf("static symbols should be distinct per file, got %d", len(seen))
	}
}

func TestLocalShadowing(t *testing.T) {
	src := `int x;
int f(void) {
	int x;
	x = 1;
	{ int x; x = 2; }
	return x;
}`
	prog := analyzeOne(t, src)
	syms := make(map[*Symbol]bool)
	for _, s := range uses(prog, "x") {
		syms[s] = true
	}
	// Three uses resolve to two distinct locals (the global is never used).
	if len(syms) != 2 {
		t.Errorf("got %d distinct x symbols, want 2", len(syms))
	}
	for s := range syms {
		if s.Global {
			t.Error("global x should not be referenced")
		}
	}
}

func TestParamSymbols(t *testing.T) {
	prog := analyzeOne(t, "int add(int a, int b) { return a + b; }")
	fd := findFunc(t, prog, "add")
	params := prog.Sym(fd.Sym).Params
	if len(params) != 2 || params[0].Name != "a" || params[0].Kind != SymParam {
		t.Fatalf("params = %v", params)
	}
}

func TestExpressionTypes(t *testing.T) {
	src := `struct S { int *s1; char c; } s, *p;
int arr[10];
int f(void) {
	char *cp;
	double d;
	p = &s;
	cp = (char *)p;
	d = 1.5;
	return *s.s1 + arr[2];
}`
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")

	// Find "p = &s": RHS type must be struct S *.
	st := fd.Body.List[2].(*ast.ExprStmt) // after the two local decl stmts
	as := st.X.(*ast.Assign)
	rt := as.R.ExprType()
	if rt.Kind != types.Ptr || rt.Elem.Kind != types.Struct {
		t.Errorf("&s type = %s", rt)
	}

	// Return expression: *s.s1 is int, arr[2] is int, sum is int.
	ret := fd.Body.List[len(fd.Body.List)-1].(*ast.Return)
	if typ := ret.Expr.ExprType(); typ.Kind != types.Int {
		t.Errorf("return type = %s", typ)
	}
}

func TestMemberTypes(t *testing.T) {
	src := `struct T { struct T *next; int v; };
int f(struct T *p) { return p->next->v; }`
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	ret := fd.Body.List[0].(*ast.Return)
	mem := ret.Expr.(*ast.Member)
	if typ := mem.ExprType(); typ.Kind != types.Int {
		t.Errorf("p->next->v type = %s", typ)
	}
	inner := mem.X.(*ast.Member)
	it := inner.ExprType()
	if it.Kind != types.Ptr || it.Elem.Kind != types.Struct {
		t.Errorf("p->next type = %s", it)
	}
}

func TestArrayDecayInBinary(t *testing.T) {
	src := "int arr[4];\nint *f(void) { return arr + 1; }"
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	ret := fd.Body.List[0].(*ast.Return)
	typ := ret.Expr.ExprType()
	if typ.Kind != types.Ptr || typ.Elem.Kind != types.Int {
		t.Errorf("arr + 1 type = %s", typ)
	}
}

func TestPointerDifference(t *testing.T) {
	src := "long f(char *a, char *b) { return a - b; }"
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	ret := fd.Body.List[0].(*ast.Return)
	if typ := ret.Expr.ExprType(); typ.Kind != types.Long {
		t.Errorf("ptr diff type = %s", typ)
	}
}

func TestUsualArithmeticConversions(t *testing.T) {
	src := `int f(void) {
	char c; unsigned u; long l; double d; float g;
	c + c;
	u + 1;
	l + u;
	d + 1;
	g + g;
	return 0;
}`
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	wants := []types.Kind{types.Int, types.UInt, types.Long, types.Double, types.Float}
	idx := 0
	for _, st := range fd.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		if idx >= len(wants) {
			break
		}
		typ := es.X.ExprType()
		if typ.Kind != wants[idx] {
			t.Errorf("expr %d type = %s, want kind %v", idx, typ, wants[idx])
		}
		idx++
	}
}

func TestImplicitFunctionDeclaration(t *testing.T) {
	prog := analyzeOne(t, "int f(void) { return mystery(3); }")
	sym := prog.LookupGlobal("mystery")
	if sym == nil || !sym.Implicit || sym.Kind != SymFunc {
		t.Fatalf("mystery = %+v", sym)
	}
	if sym.Type.Sig.Result.Kind != types.Int {
		t.Errorf("implicit result = %s", sym.Type.Sig.Result)
	}
}

func TestUndeclaredIdentifierError(t *testing.T) {
	u := types.NewUniverse()
	prep := pp.New(pp.Config{})
	toks, _ := prep.Process("t.c", []byte("int f(void) { return nope; }"))
	f, err := parser.Parse("t.c", toks, parser.Config{Universe: u})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze([]*ast.File{f}, u, nil)
	if err == nil {
		t.Error("expected error for undeclared identifier")
	}
}

func TestFunctionPointerCall(t *testing.T) {
	src := `int g(int x) { return x; }
int f(void) {
	int (*fp)(int);
	fp = g;
	return fp(1) + (*fp)(2);
}`
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	ret := fd.Body.List[2].(*ast.Return)
	if typ := ret.Expr.ExprType(); typ.Kind != types.Int {
		t.Errorf("indirect call sum type = %s", typ)
	}
}

func TestStringLiteralType(t *testing.T) {
	prog := analyzeOne(t, `char *s = "hi";`)
	// The initializer expression must have type char[3].
	var lit *ast.StringLit
	ast.Walk(prog.Files[0], func(n ast.Node) bool {
		if l, ok := n.(*ast.StringLit); ok && lit == nil {
			lit = l
		}
		return true
	})
	if lit == nil {
		t.Fatal("no string literal")
	}
	if typ := lit.ExprType(); typ == nil || typ.Kind != types.Array || typ.ArrayLen != 3 {
		t.Errorf("string literal type = %v", typ)
	}
}

func TestStaticLocal(t *testing.T) {
	src := "int counter(void) { static int n; n++; return n; }"
	prog := analyzeOne(t, src)
	var sym *Symbol
	for _, s := range prog.Symbols {
		if s.Name == "n" {
			sym = s
		}
	}
	if sym == nil || !sym.Global || !sym.Static {
		t.Errorf("static local n = %+v", sym)
	}
}

func TestCastTypes(t *testing.T) {
	src := `struct A { int *a1; };
int f(void *v) {
	struct A *p;
	p = (struct A *)v;
	return *p->a1;
}`
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	st := fd.Body.List[1].(*ast.ExprStmt)
	as := st.X.(*ast.Assign)
	typ := as.R.ExprType()
	if typ.Kind != types.Ptr || typ.Elem.Record.Tag != "A" {
		t.Errorf("cast type = %s", typ)
	}
}

func TestCondExprPointer(t *testing.T) {
	src := "int f(int c, int *a, int *b) { return *(c ? a : b); }"
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	ret := fd.Body.List[0].(*ast.Return)
	if typ := ret.Expr.ExprType(); typ.Kind != types.Int {
		t.Errorf("deref of cond = %s", typ)
	}
}
