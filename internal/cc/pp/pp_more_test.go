package pp

import (
	"strings"
	"testing"
)

// Additional preprocessor corner cases beyond pp_test.go.

func TestNestedFunctionMacroCalls(t *testing.T) {
	got := render(t, "#define ADD(a,b) ((a)+(b))\nx = ADD(ADD(1,2), ADD(3,4));")
	want := "x = ( ( ( ( 1 ) + ( 2 ) ) ) + ( ( ( 3 ) + ( 4 ) ) ) ) ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestMacroExpandingToMacroCall(t *testing.T) {
	got := render(t, "#define A(x) B(x)\n#define B(x) (x+1)\ny = A(5);")
	want := "y = ( 5 + 1 ) ;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestArgumentsExpandedBeforeSubstitution(t *testing.T) {
	got := render(t, "#define N 10\n#define ID(x) x\nz = ID(N);")
	if got != "z = 10 ;" {
		t.Errorf("got %q", got)
	}
}

func TestStringifyDoesNotExpand(t *testing.T) {
	// #x must stringify the raw argument, not its expansion.
	got := render(t, "#define N 10\n#define STR(x) #x\ns = STR(N);")
	if got != `s = "N" ;` {
		t.Errorf("got %q", got)
	}
}

func TestPasteDoesNotExpandOperands(t *testing.T) {
	// Operands of ## are pasted unexpanded.
	got := render(t, "#define A 1\n#define CAT(a,b) a##b\nint AB;\nx = CAT(A,B);")
	if !strings.Contains(got, "x = AB ;") {
		t.Errorf("got %q", got)
	}
}

func TestPasteResultRescanned(t *testing.T) {
	// The pasted token is itself a macro name and must expand.
	got := render(t, "#define AB 42\n#define CAT(a,b) a##b\nx = CAT(A,B);")
	if !strings.Contains(got, "x = 42 ;") {
		t.Errorf("got %q", got)
	}
}

func TestEmptyMacroArgument(t *testing.T) {
	got := render(t, "#define PAIR(a,b) {a,b}\nx = PAIR(,2);")
	if got != "x = { , 2 } ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacroInConditional(t *testing.T) {
	got := render(t, "#define FLAG 1\n#if FLAG\nyes\n#endif")
	if got != "yes" {
		t.Errorf("got %q", got)
	}
}

func TestDefinedOfFunctionMacro(t *testing.T) {
	got := render(t, "#define F(x) x\n#if defined(F)\nyes\n#endif")
	if got != "yes" {
		t.Errorf("got %q", got)
	}
}

func TestUndefInsideConditional(t *testing.T) {
	src := "#define A 1\n#if 1\n#undef A\n#endif\n#ifdef A\ndefined\n#else\nundefined\n#endif"
	if got := render(t, src); got != "undefined" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeDepthLimit(t *testing.T) {
	p := New(Config{
		MaxIncludeDepth: 4,
		Include: func(name string, system bool, from string) (string, []byte, error) {
			// Self-including header without a guard.
			return name, []byte("#include \"" + name + "\"\n"), nil
		},
	})
	_, err := p.Process("t.c", []byte("#include \"loop.h\"\n"))
	if err == nil || !strings.Contains(err.Error(), "nesting too deep") {
		t.Errorf("expected depth error, got %v", err)
	}
}

func TestPragmaOnce(t *testing.T) {
	calls := 0
	p := New(Config{
		Include: func(name string, system bool, from string) (string, []byte, error) {
			calls++
			return name, []byte("#pragma once\nint once_var;\n"), nil
		},
	})
	toks, err := p.Process("t.c", []byte("#include \"o.h\"\n#include \"o.h\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, tok := range toks {
		if tok.Text == "once_var" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("once_var appears %d times, want 1", count)
	}
}

func TestLineDirectiveIgnored(t *testing.T) {
	got := render(t, "#line 100 \"other.c\"\nint x;")
	if got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestNullDirective(t *testing.T) {
	got := render(t, "#\nint x;")
	if got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

func TestConditionWithMacroArithmetic(t *testing.T) {
	src := "#define A 3\n#define B 4\n#if A * B == 12 && A < B\nok\n#endif"
	if got := render(t, src); got != "ok" {
		t.Errorf("got %q", got)
	}
}

func TestMacroUsedAsIncludeOperand(t *testing.T) {
	p := New(Config{
		Include: func(name string, system bool, from string) (string, []byte, error) {
			if name == "real.h" {
				return name, []byte("int from_real;\n"), nil
			}
			return "", nil, errNotFound
		},
	})
	toks, err := p.Process("t.c", []byte("#define HDR \"real.h\"\n#include HDR\n"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.Text == "from_real" {
			found = true
		}
	}
	if !found {
		t.Error("macro-valued #include failed")
	}
}

var errNotFound = &notFoundError{}

type notFoundError struct{}

func (*notFoundError) Error() string { return "not found" }

func TestSkippedBranchBadSyntaxTolerated(t *testing.T) {
	// Garbage in a skipped branch must not fail the compile.
	src := "#if 0\n#define BROKEN( x\n@@@@\n#endif\nint ok;"
	got, err := renderErr(src)
	if err != nil {
		t.Fatalf("skipped garbage caused error: %v", err)
	}
	if got != "int ok ;" {
		t.Errorf("got %q", got)
	}
}

func TestDeeplyNestedConditionals(t *testing.T) {
	src := ""
	for i := 0; i < 30; i++ {
		src += "#if 1\n"
	}
	src += "deep\n"
	for i := 0; i < 30; i++ {
		src += "#endif\n"
	}
	if got := render(t, src); got != "deep" {
		t.Errorf("got %q", got)
	}
}

func TestObjectMacroWithParensInBody(t *testing.T) {
	// An object-like macro whose body begins with ( is not function-like.
	got := render(t, "#define V (1+2)\nx = V;")
	if got != "x = ( 1 + 2 ) ;" {
		t.Errorf("got %q", got)
	}
}

// An invocation whose arguments span many lines expands as if written on
// one line, with every line held back until the closing parenthesis.
func TestInvocationSpanningManyLines(t *testing.T) {
	const n = 20000
	args := strings.Repeat("(a + [b]),\n", n)
	got := render(t, "#define G(x, y) [x | y]\nint v = G(\n"+args+"c) + G(1,\n2\n);")
	want := render(t, "#define G(x, y) [x | y]\nint v = G("+strings.ReplaceAll(args, "\n", " ")+"c) + G(1, 2);")
	if got != want {
		t.Errorf("multi-line invocation differs from its one-line form")
	}
	if !strings.HasSuffix(got, "[ 1 | 2 ] ;") {
		t.Errorf("got suffix %q", got[max(0, len(got)-40):])
	}
}
