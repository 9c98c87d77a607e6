package pp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cc/token"
)

// render preprocesses src and joins the resulting token spellings with spaces.
func render(t *testing.T, src string) string {
	t.Helper()
	p := New(Config{})
	toks, err := p.Process("test.c", []byte(src))
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	var parts []string
	for _, tok := range toks {
		if tok.Kind == token.EOF {
			break
		}
		parts = append(parts, tok.String())
	}
	return strings.Join(parts, " ")
}

func renderErr(src string) (string, error) {
	p := New(Config{})
	toks, err := p.Process("test.c", []byte(src))
	var parts []string
	for _, tok := range toks {
		if tok.Kind == token.EOF {
			break
		}
		parts = append(parts, tok.String())
	}
	return strings.Join(parts, " "), err
}

func TestObjectMacro(t *testing.T) {
	got := render(t, "#define N 10\nint a[N];")
	want := "int a [ 10 ] ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestFunctionMacro(t *testing.T) {
	got := render(t, "#define SQ(x) ((x)*(x))\nint y = SQ(a+1);")
	want := "int y = ( ( a + 1 ) * ( a + 1 ) ) ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestFunctionMacroMultipleArgs(t *testing.T) {
	got := render(t, "#define MAX(a,b) ((a)>(b)?(a):(b))\nm = MAX(x, y);")
	want := "m = ( ( x ) > ( y ) ? ( x ) : ( y ) ) ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestNestedMacroExpansion(t *testing.T) {
	got := render(t, "#define A B\n#define B C\nA")
	if got != "C" {
		t.Errorf("got %q want C", got)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	got := render(t, "#define X X\nX")
	if got != "X" {
		t.Errorf("self-recursive macro: got %q want X", got)
	}
	got = render(t, "#define A B\n#define B A\nA")
	if got != "A" && got != "B" {
		t.Errorf("mutually recursive macros: got %q", got)
	}
}

func TestMacroNameNotFollowedByParen(t *testing.T) {
	got := render(t, "#define F(x) x\nint F;")
	want := "int F ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestZeroArgMacro(t *testing.T) {
	got := render(t, "#define NIL() 0\np = NIL();")
	want := "p = 0 ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestArgsWithCommasInParens(t *testing.T) {
	got := render(t, "#define FST(p) p\nx = FST(f(a, b));")
	want := "x = f ( a , b ) ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestStringify(t *testing.T) {
	got := render(t, "#define STR(x) #x\ns = STR(a + b);")
	want := `s = "a + b" ;`
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestPaste(t *testing.T) {
	got := render(t, "#define GLUE(a,b) a##b\nint GLUE(var, 1);")
	want := "int var1 ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestPasteChain(t *testing.T) {
	got := render(t, "#define GLUE3(a,b,c) a##b##c\nint GLUE3(x, y, z);")
	want := "int xyz ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestUndef(t *testing.T) {
	got := render(t, "#define N 1\n#undef N\nN")
	if got != "N" {
		t.Errorf("got %q want N", got)
	}
}

func TestIfdef(t *testing.T) {
	got := render(t, "#define A\n#ifdef A\nyes\n#else\nno\n#endif")
	if got != "yes" {
		t.Errorf("got %q want yes", got)
	}
	got = render(t, "#ifdef A\nyes\n#else\nno\n#endif")
	if got != "no" {
		t.Errorf("got %q want no", got)
	}
}

func TestIfndef(t *testing.T) {
	got := render(t, "#ifndef A\nyes\n#endif")
	if got != "yes" {
		t.Errorf("got %q want yes", got)
	}
}

func TestIfArithmetic(t *testing.T) {
	cases := []struct {
		cond string
		want bool
	}{
		{"1", true},
		{"0", false},
		{"2 + 3 == 5", true},
		{"1 << 4", true},
		{"(1 ? 2 : 3) == 2", true},
		{"!defined(FOO)", true},
		{"defined FOO", false},
		{"'a' == 97", true},
		{"UNDEFINED_NAME", false},
		{"10 % 3 == 1", true},
		{"-1 < 0", true},
		{"~0 == -1", true},
	}
	for _, c := range cases {
		src := fmt.Sprintf("#if %s\nyes\n#else\nno\n#endif", c.cond)
		got := render(t, src)
		want := "no"
		if c.want {
			want = "yes"
		}
		if got != want {
			t.Errorf("#if %s: got %q want %q", c.cond, got, want)
		}
	}
}

func TestElifChain(t *testing.T) {
	src := "#define V 2\n#if V == 1\none\n#elif V == 2\ntwo\n#elif V == 3\nthree\n#else\nother\n#endif"
	if got := render(t, src); got != "two" {
		t.Errorf("got %q want two", got)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := "#if 0\n#if 1\nhidden\n#endif\n#else\nshown\n#endif"
	if got := render(t, src); got != "shown" {
		t.Errorf("got %q want shown", got)
	}
}

func TestSkippedBranchNotExpanded(t *testing.T) {
	// Macros inside a skipped branch must not be defined.
	src := "#if 0\n#define X 1\n#endif\nX"
	if got := render(t, src); got != "X" {
		t.Errorf("got %q want X", got)
	}
}

func TestIncludeBuiltinHeader(t *testing.T) {
	got := render(t, "#include <stddef.h>\nsize_t n;")
	if !strings.Contains(got, "typedef unsigned long size_t ;") {
		t.Errorf("stddef.h not included: %q", got)
	}
	if !strings.HasSuffix(got, "size_t n ;") {
		t.Errorf("trailing decl missing: %q", got)
	}
}

// TestIncludeHeaderNameKeepsSpaces: a <...> name is the text between the
// delimiters byte for byte, so <std def.h> names no header and must not
// resolve to stddef.h.
func TestIncludeHeaderNameKeepsSpaces(t *testing.T) {
	var names []string
	p := New(Config{Include: func(name string, system bool, from string) (string, []byte, error) {
		names = append(names, name)
		return "", nil, fmt.Errorf("not found")
	}})
	_, err := p.Process("t.c", []byte("#include <std def.h>\n#include <a  b.h>\nsize_t n;"))
	if err == nil || !strings.Contains(err.Error(), `#include "std def.h"`) {
		t.Fatalf("err = %v, want a not-found error for \"std def.h\"", err)
	}
	if len(p.Errors()) != 2 {
		t.Errorf("errors = %v, want one per include", p.Errors())
	}
	if want := []string{"std def.h", "a  b.h"}; !slices.Equal(names, want) {
		t.Errorf("resolver saw %q, want %q", names, want)
	}
}

func TestIncludeGuardIdempotent(t *testing.T) {
	got := render(t, "#include <stddef.h>\n#include <stddef.h>\n")
	if strings.Count(got, "typedef unsigned long size_t ;") != 1 {
		t.Errorf("header guard failed: %q", got)
	}
}

func TestIncludeUser(t *testing.T) {
	files := map[string]string{
		"util.h": "#define TWO 2\n",
	}
	p := New(Config{
		Include: func(name string, system bool, from string) (string, []byte, error) {
			if text, ok := files[name]; ok {
				return name, []byte(text), nil
			}
			return "", nil, fmt.Errorf("not found")
		},
	})
	toks, err := p.Process("main.c", []byte("#include \"util.h\"\nint a = TWO;"))
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	var parts []string
	for _, tok := range toks {
		if tok.Kind == token.EOF {
			break
		}
		parts = append(parts, tok.String())
	}
	got := strings.Join(parts, " ")
	if got != "int a = 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestErrorDirective(t *testing.T) {
	_, err := renderErr("#error broken\n")
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Errorf("expected #error to fail, got %v", err)
	}
	// Skipped #error must not fire.
	_, err = renderErr("#if 0\n#error hidden\n#endif\n")
	if err != nil {
		t.Errorf("skipped #error fired: %v", err)
	}
}

func TestPredefined(t *testing.T) {
	got := render(t, "__STDC__")
	if got != "1" {
		t.Errorf("__STDC__ = %q", got)
	}
	got = render(t, "int x;\n__LINE__")
	if got != "int x ; 2" {
		t.Errorf("__LINE__: got %q", got)
	}
	got = render(t, "__FILE__")
	if got != `"test.c"` {
		t.Errorf("__FILE__ = %q", got)
	}
}

func TestConfigDefines(t *testing.T) {
	p := New(Config{Defines: map[string]string{"DEBUG": "", "LEVEL": "3"}})
	toks, err := p.Process("t.c", []byte("#if defined(DEBUG) && LEVEL == 3\nok\n#endif"))
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	if len(toks) < 1 || toks[0].Text != "ok" {
		t.Errorf("got %v", toks)
	}
}

func TestMultiLineInvocation(t *testing.T) {
	got := render(t, "#define ADD(a,b) (a+b)\nx = ADD(1,\n2);")
	want := "x = ( 1 + 2 ) ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestOffsetofMacro(t *testing.T) {
	got := render(t, "#include <stddef.h>\nn = offsetof(struct S, f);")
	if !strings.Contains(got, "( size_t ) & ( ( ( struct S * ) 0 ) -> f )") {
		t.Errorf("offsetof expansion: %q", got)
	}
}

func TestUnterminatedConditional(t *testing.T) {
	_, err := renderErr("#if 1\nx\n")
	if err == nil {
		t.Error("expected error for unterminated #if")
	}
}

func TestBenignRedefinition(t *testing.T) {
	_, err := renderErr("#define N 10\n#define N 10\nN")
	if err != nil {
		t.Errorf("benign redefinition rejected: %v", err)
	}
	_, err = renderErr("#define N 10\n#define N 11\n")
	if err == nil {
		t.Error("incompatible redefinition accepted")
	}
}
