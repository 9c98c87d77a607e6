package sema

import (
	"testing"

	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/cc/pp"
	"repro/internal/cc/types"
)

// parseFiles parses sources without running Analyze (so error-path tests can
// inspect Program.Errors themselves).
func parseFiles(t *testing.T, srcs map[string]string) ([]*ast.File, *types.Universe) {
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
	return files, u
}

// Additional semantic-analysis coverage.

func TestForLoopDeclScope(t *testing.T) {
	src := `int f(void) {
	int total = 0;
	for (int i = 0; i < 4; i++) total += i;
	for (int i = 9; i > 0; i--) total -= i;
	return total;
}`
	prog := analyzeOne(t, src)
	// The two i's must be distinct symbols.
	seen := make(map[*Symbol]bool)
	for _, s := range uses(prog, "i") {
		seen[s] = true
	}
	if len(seen) != 2 {
		t.Errorf("distinct i symbols = %d, want 2", len(seen))
	}
}

func TestIncompatibleRedeclarationError(t *testing.T) {
	files, u := parseFiles(t, map[string]string{
		"a.c": "int thing;",
		"b.c": "extern char *thing; char *use(void) { return thing; }",
	})
	prog, _ := Analyze(files, u, nil)
	if len(prog.Errors) == 0 {
		t.Error("conflicting declarations should error")
	}
}

func TestFuncPrototypeThenDefinition(t *testing.T) {
	src := `int add(int, int);
int add(int a, int b) { return a + b; }
int use(void) { return add(1, 2); }`
	prog := analyzeOne(t, src)
	sym := prog.LookupGlobal("add")
	if sym == nil || sym.Def == nil {
		t.Fatal("definition not attached to prototype symbol")
	}
	if len(prog.Funcs) != 2 {
		t.Errorf("funcs = %d, want 2", len(prog.Funcs))
	}
}

func TestRedefinitionError(t *testing.T) {
	src := "int f(void) { return 0; }\nint f(void) { return 1; }"
	prog := analyzeLoose(t, src)
	if len(prog.Errors) == 0 {
		t.Error("function redefinition should error")
	}
}

func TestDerefNonPointerError(t *testing.T) {
	src := "int f(void) { int x; return *x; }"
	u := mustParse(t, src)
	if len(u.Errors) == 0 {
		t.Error("deref of int should error")
	}
}

func TestCallNonFunctionError(t *testing.T) {
	src := "int f(void) { int x; return x(); }"
	u := mustParse(t, src)
	if len(u.Errors) == 0 {
		t.Error("call of int should error")
	}
}

func TestUnknownFieldError(t *testing.T) {
	src := "struct S { int a; } s;\nint f(void) { return s.b; }"
	u := mustParse(t, src)
	if len(u.Errors) == 0 {
		t.Error("unknown field should error")
	}
}

// mustParse analyzes a program expected to produce semantic errors (parse
// itself must succeed).
func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog := analyzeLoose(t, src)
	return prog
}

func analyzeLoose(t *testing.T, src string) *Program {
	t.Helper()
	files, univ := parseFiles(t, map[string]string{"t.c": src})
	prog, _ := Analyze(files, univ, nil)
	return prog
}

func TestIndexSwappedForm(t *testing.T) {
	// i[a] is valid C, equivalent to a[i].
	src := "int arr[4];\nint f(int i) { return i[arr]; }"
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	ret := fd.Body.List[0].(*ast.Return)
	if typ := ret.Expr.ExprType(); typ.Kind != types.Int {
		t.Errorf("i[arr] type = %s", typ)
	}
}

func TestAddressOfFunction(t *testing.T) {
	src := `int g(void) { return 1; }
int (*p1)(void), (*p2)(void);
void f(void) { p1 = g; p2 = &g; }`
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	for _, st := range fd.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		as := es.X.(*ast.Assign)
		typ := as.R.ExprType()
		// g has func type, &g pointer-to-func; both legal.
		if typ.Kind != types.Func && !(typ.Kind == types.Ptr && typ.Elem.Kind == types.Func) {
			t.Errorf("RHS type = %s", typ)
		}
	}
}

func TestShiftResultType(t *testing.T) {
	src := "unsigned char c;\nint f(void) { return c << 4; }"
	prog := analyzeOne(t, src)
	fd := findFunc(t, prog, "f")
	ret := fd.Body.List[0].(*ast.Return)
	bin := ret.Expr.(*ast.Binary)
	// Shift takes the promoted left operand's type: uchar promotes to int.
	if typ := bin.ExprType(); typ.Kind != types.Int {
		t.Errorf("shift type = %s", typ)
	}
}

func TestSizeofTypes(t *testing.T) {
	src := "int f(int *p) { return (int)(sizeof(int) + sizeof *p); }"
	prog := analyzeOne(t, src)
	sizeofs := 0
	ast.Walk(prog.Files[0], func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SizeofType, *ast.SizeofExpr:
			sizeofs++
			if typ := e.(ast.Expr).ExprType(); typ == nil || typ.Kind != types.ULong {
				t.Errorf("sizeof type = %v, want unsigned long", typ)
			}
		}
		return true
	})
	if sizeofs != 2 {
		t.Errorf("found %d sizeof expressions, want 2", sizeofs)
	}
}

func TestVoidFunctionSymbols(t *testing.T) {
	prog := analyzeOne(t, "void nop(void) {}\nvoid f(void) { nop(); }")
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(prog.Funcs))
	}
}

func TestUniqueNamesDistinct(t *testing.T) {
	src := `int f(void) { int v; { int v; v = 1; } return v; }
int g(void) { int v; return v; }`
	prog := analyzeOne(t, src)
	uniq := make(map[string]int)
	for _, s := range prog.Symbols {
		if s.Name == "v" {
			uniq[s.Unique]++
		}
	}
	if len(uniq) != 3 {
		t.Errorf("unique names for v = %d, want 3 (%v)", len(uniq), uniq)
	}
	for u, n := range uniq {
		if n != 1 {
			t.Errorf("unique name %q used %d times", u, n)
		}
	}
}
