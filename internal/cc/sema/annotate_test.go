package sema_test

import (
	"testing"

	"repro/internal/cc/ast"
	"repro/internal/cc/sema"
	"repro/internal/corpus"
	"repro/internal/frontend"
)

// checkAnnotated walks every file of an analyzed program and reports an
// expression node without a type, or an identifier use without a symbol.
func checkAnnotated(t *testing.T, name string, prog *sema.Program) {
	t.Helper()
	exprs, idents := 0, 0
	for _, f := range prog.Files {
		ast.Walk(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			exprs++
			if e.ExprType() == nil {
				t.Errorf("%s: %s: %T has no type", name, e.Pos(), e)
			}
			if id, ok := e.(*ast.Ident); ok {
				idents++
				if s := prog.Sym(id.Sym); s == nil || s.Name != id.Name {
					t.Errorf("%s: %s: %q resolves to %v", name, id.Pos(), id.Name, s)
				}
			}
			return true
		})
	}
	if exprs == 0 || idents == 0 {
		t.Errorf("%s: walked %d expressions, %d identifiers", name, exprs, idents)
	}
}

// TestEveryExpressionAnnotated pins that Analyze types every expression
// node and resolves every identifier over the corpus and a generated
// cast-heavy program.
func TestEveryExpressionAnnotated(t *testing.T) {
	all, names, err := corpus.All()
	if err != nil {
		t.Fatal(err)
	}
	casts := corpus.GenParams{NStructs: 4, NFields: 4, NObjects: 3, NDerefs: 40, CastDensity: 25, Seed: 1}
	all["casts"] = corpus.Generate(casts)
	names = append(names, "casts")
	for _, name := range names {
		res, err := frontend.Load(all[name], frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAnnotated(t, name, res.Sema)
	}
}

// TestCrossFileStaticResolution pins the per-file static tables: a
// file's static x shadows another file's global x in that file only, and
// a block-scope extern x names the global.
func TestCrossFileStaticResolution(t *testing.T) {
	res, err := frontend.Load([]frontend.Source{
		{Name: "a.c", Text: "int x;\nint *ga(void) { return &x; }\n"},
		{Name: "b.c", Text: "static int x;\nint *sb(void) { return &x; }\nint *eb(void) { extern int x; return &x; }\n"},
		{Name: "c.c", Text: "extern int x;\nint *gc(void) { return &x; }\n"},
	}, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := res.Sema
	global := prog.LookupGlobal("x")
	if global == nil || global.Static {
		t.Fatalf("global x = %+v", global)
	}
	want := map[string]*sema.Symbol{"ga": global, "eb": global, "gc": global}
	for _, s := range prog.Funcs {
		var got *sema.Symbol
		ast.Walk(s.Def.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "x" {
				got = prog.Sym(id.Sym)
			}
			return true
		})
		if s.Name == "sb" {
			if got == nil || got == global || !got.Static || got.Unique != "b.c::x" {
				t.Errorf("sb: x resolves to %+v, want b.c's static", got)
			}
			continue
		}
		if got != want[s.Name] {
			t.Errorf("%s: x resolves to %+v, want the global", s.Name, got)
		}
	}
}
