package core_test

import (
	"strings"
	"testing"

	"repro/internal/cc/layout"
	"repro/internal/cc/types"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// Additional solver and strategy coverage beyond the paper's worked
// examples in solver_test.go.

func TestExpandedSizes(t *testing.T) {
	src := `
struct Inner { int *a; int *b; } ;
struct Outer { struct Inner in; int *c; } o;
union U { int *u1; char *u2; } u;
int x, *p;
void f(void) {
	p = &x;
	o.c = &x;
	u.u1 = &x;
}`
	r := loadIR(t, src, nil)
	o := objByName(t, r.IR, "o")
	u := objByName(t, r.IR, "u")
	x := objByName(t, r.IR, "x")

	ca := core.NewCollapseAlways()
	if got := ca.ExpandedSize(core.Cell{Obj: o}); got != 3 {
		t.Errorf("collapse ExpandedSize(o) = %d, want 3 leaves", got)
	}
	if got := ca.ExpandedSize(core.Cell{Obj: u}); got != 2 {
		t.Errorf("collapse ExpandedSize(u) = %d, want 2", got)
	}
	if got := ca.ExpandedSize(core.Cell{Obj: x}); got != 1 {
		t.Errorf("collapse ExpandedSize(x) = %d, want 1", got)
	}

	cis := core.NewCIS()
	leaf := cis.Normalize(o, ir.Path{"c"})
	if got := cis.ExpandedSize(leaf); got != 1 {
		t.Errorf("cis ExpandedSize(o.c) = %d, want 1", got)
	}
	// The collapsed union cell stands for both members.
	ucell := cis.Normalize(u, nil)
	if got := cis.ExpandedSize(ucell); got != 2 {
		t.Errorf("cis ExpandedSize(u) = %d, want 2", got)
	}

	off := core.NewOffsets(r.Layout)
	if got := off.ExpandedSize(core.Cell{Obj: o, Off: 8}); got != 1 {
		t.Errorf("offsets ExpandedSize = %d, want 1", got)
	}
}

func TestCellString(t *testing.T) {
	o := &ir.Object{ID: 1, Name: "v"}
	u := types.NewUniverse()
	in := u.NewRecord("In", false)
	in.Record.Fields = []types.Field{{Name: "b", Type: types.PointerTo(u.Basic(types.Int)), BitWidth: -1}}
	in.Record.Complete = true
	out := u.NewRecord("Out", false)
	out.Record.Fields = []types.Field{{Name: "a", Type: in, BitWidth: -1}}
	out.Record.Complete = true
	ab, ok := core.CellAt(&ir.Object{ID: 2, Name: "v", Type: out}, 0, "a.b", false)
	if !ok {
		t.Fatal("CellAt(v.a.b) failed")
	}
	cases := []struct {
		c    core.Cell
		want string
	}{
		{core.Cell{Obj: o}, "v"},
		{core.Cell{Obj: o, Off: 8}, "v@8"},
		{ab, "v.a.b"},
		{core.Cell{}, "<nil>"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("Cell.String() = %q, want %q", got, c.want)
		}
	}
}

func TestNormalizeFirstFieldDescent(t *testing.T) {
	src := `
struct In { int *deep; int *other; };
struct Mid { struct In in; int *m; };
struct Out { struct Mid mid; int *o; } obj;
int z;
void f(void) { obj.o = &z; }`
	r := loadIR(t, src, nil)
	obj := objByName(t, r.IR, "obj")

	cis := core.NewCIS()
	// A reference to the whole object normalizes to the innermost
	// first field.
	if got := cis.Normalize(obj, nil).String(); got != "obj.mid.in.deep" {
		t.Errorf("normalize(obj) = %q", got)
	}
	// A nested struct reference descends too.
	if got := cis.Normalize(obj, ir.Path{"mid"}).String(); got != "obj.mid.in.deep" {
		t.Errorf("normalize(obj.mid) = %q", got)
	}
	// A scalar field stays put.
	if got := cis.Normalize(obj, ir.Path{"o"}).String(); got != "obj.o" {
		t.Errorf("normalize(obj.o) = %q", got)
	}
}

func TestOffsetsGranularCoarsens(t *testing.T) {
	src := `
struct Pair { char tag; char tag2; int *p; } g;
int x, *r;
void f(void) {
	g.p = &x;
	r = ((struct Pair *)&g)->p;
}`
	r := loadIR(t, src, nil)
	g := objByName(t, r.IR, "g")

	fine := core.NewOffsetsGranular(r.Layout, 1)
	coarse := core.NewOffsetsGranular(r.Layout, 8)
	// tag and tag2 have distinct cells at granularity 1, shared at 8.
	c1a := fine.Normalize(g, ir.Path{"tag"})
	c1b := fine.Normalize(g, ir.Path{"tag2"})
	if c1a == c1b {
		t.Error("granularity 1 should separate tag and tag2")
	}
	c8a := coarse.Normalize(g, ir.Path{"tag"})
	c8b := coarse.Normalize(g, ir.Path{"tag2"})
	if c8a != c8b {
		t.Error("granularity 8 should merge tag and tag2")
	}
	// The analysis still finds x through the pointer field.
	res := core.Analyze(r.IR, core.NewOffsetsGranular(r.Layout, 8))
	rv := objByName(t, r.IR, "r")
	if got := targetObjs(res, rv); !got["x"] {
		t.Errorf("granular offsets lost x: %v", got)
	}
}

func TestNoPtrArithSmearOption(t *testing.T) {
	src := `
struct G { int *g1; int *g2; } g;
int x, y, **p, *r;
void f(void) {
	g.g1 = &x;
	g.g2 = &y;
	p = &g.g1;
	p = p + 1;
	r = *p;
}`
	r := loadIR(t, src, nil)
	rv := objByName(t, r.IR, "r")

	with := core.Analyze(r.IR, core.NewCIS())
	if got := targetObjs(with, rv); !got["y"] {
		t.Errorf("smear on: pts(r) = %v, want y included", keys(got))
	}
	without := core.AnalyzeWith(r.IR, core.NewCIS(), core.Options{NoPtrArithSmear: true})
	if got := targetObjs(without, rv); got["y"] {
		t.Errorf("smear off: pts(r) = %v, y must be absent", keys(got))
	}
}

func TestResultAPIs(t *testing.T) {
	src := "int x, *p;\nvoid f(void) { p = &x; }"
	r := loadIR(t, src, nil)
	res := core.Analyze(r.IR, core.NewCIS())
	p := objByName(t, r.IR, "p")

	cell := res.Strategy.Normalize(p, nil)
	set := res.PointsToCell(cell)
	if set.Len() != 1 {
		t.Fatalf("PointsToCell len = %d", set.Len())
	}
	count := 0
	for _, c := range res.SortedCells() {
		count += res.PointsToCell(c).Len()
	}
	if count != res.TotalFacts() {
		t.Errorf("SortedCells total %d != TotalFacts %d", count, res.TotalFacts())
	}
	sorted := set.Sorted()
	if len(sorted) != 1 || sorted[0].Obj.Name != "x" {
		t.Errorf("Sorted = %v", sorted)
	}
	if !set.Has(sorted[0]) {
		t.Error("Has(member) = false")
	}
}

func TestEmptyProgram(t *testing.T) {
	r := loadIR(t, "int main(void) { return 0; }", nil)
	for name, strat := range strategies(r.Layout) {
		res := core.Analyze(r.IR, strat)
		if res.TotalFacts() != 0 {
			t.Errorf("%s: facts = %d on pointer-free program", name, res.TotalFacts())
		}
		if res.AvgDerefSetSize() != 0 {
			t.Errorf("%s: avg = %v", name, res.AvgDerefSetSize())
		}
	}
}

func TestRecursiveStructChase(t *testing.T) {
	src := `
struct node { struct node *next; int *payload; };
int a, b;
void f(void) {
	struct node n1, n2, n3;
	n1.next = &n2;
	n2.next = &n3;
	n3.next = &n1;    /* cycle */
	n1.payload = &a;
	n3.payload = &b;
	int *r = n1.next->next->next->payload;
}`
	r := loadIR(t, src, nil)
	var rv *ir.Object
	for _, o := range r.IR.Objects {
		if o.Sym != nil && o.Sym.Name == "r" {
			rv = o
		}
	}
	for name, strat := range strategies(r.Layout) {
		res := core.Analyze(r.IR, strat)
		got := targetObjs(res, rv)
		// Flow-insensitively the chase reaches every node's payload.
		if !got["a"] && !got["b"] {
			t.Errorf("%s: pts(r) = %v", name, keys(got))
		}
	}
}

func TestKRFunctionEndToEnd(t *testing.T) {
	src := `
int *pick(p, q, which)
int *p, *q;
int which;
{
	if (which)
		return p;
	return q;
}
int x, y, *r;
void f(void) { r = pick(&x, &y, 1); }`
	r := loadIR(t, src, nil)
	rv := objByName(t, r.IR, "r")
	for name, strat := range strategies(r.Layout) {
		res := core.Analyze(r.IR, strat)
		got := targetObjs(res, rv)
		if !got["x"] || !got["y"] {
			t.Errorf("%s: pts(r) = %v, want {x,y} through the K&R function", name, keys(got))
		}
	}
}

func TestDerefThroughIntRoundTrip(t *testing.T) {
	// A pointer laundered through a long must keep its facts
	// (the paper: all variables' points-to sets are tracked).
	src := `
int x, *p, *q;
long stash;
void f(void) {
	p = &x;
	stash = (long)p;
	q = (int *)stash;
}`
	r := loadIR(t, src, nil)
	q := objByName(t, r.IR, "q")
	for name, strat := range strategies(r.Layout) {
		res := core.Analyze(r.IR, strat)
		got := targetObjs(res, q)
		if !got["x"] {
			t.Errorf("%s: pts(q) = %v, want x (laundered through long)", name, keys(got))
		}
	}
}

func TestNestedArrayOfStructAnalysis(t *testing.T) {
	src := `
struct E { int *v; };
struct T { struct E rows[4]; } tab;
int x, *r;
void f(void) {
	tab.rows[2].v = &x;
	r = tab.rows[0].v;
}`
	r := loadIR(t, src, nil)
	rv := objByName(t, r.IR, "r")
	for name, strat := range strategies(r.Layout) {
		res := core.Analyze(r.IR, strat)
		got := targetObjs(res, rv)
		// Single representative element: index 2 write is seen at index 0.
		if !got["x"] {
			t.Errorf("%s: pts(r) = %v, want x", name, keys(got))
		}
	}
}

func TestStoreThroughCastedHeapBlob(t *testing.T) {
	// Untyped heap (no hint) accessed through a struct view.
	src := `
#include <stdlib.h>
struct S { int *f1; int *f2; };
int x;
void *mk(void) { return malloc(sizeof(struct S)); }
int *g(void) {
	struct S *s = (struct S *)mk();
	s->f2 = &x;
	return s->f2;
}`
	r := loadIR(t, src, nil)
	var rv *ir.Object
	for _, f := range r.IR.Funcs {
		if f.Sym.Name == "g" {
			rv = f.Retval
		}
	}
	for name, strat := range strategies(r.Layout) {
		res := core.Analyze(r.IR, strat)
		got := targetObjs(res, rv)
		if !got["x"] {
			t.Errorf("%s: pts(g()) = %v, want x via untyped heap", name, keys(got))
		}
	}
}

func TestMultiTU(t *testing.T) {
	// Cross-translation-unit flow with same-tag distinct record decls.
	srcs := []frontend.Source{
		{Name: "a.c", Text: `
struct pair { int *fst; int *snd; };
int ga;
void fill(struct pair *p) { p->fst = &ga; }`},
		{Name: "b.c", Text: `
struct pair { int *fst; int *snd; };
void fill(struct pair *p);
struct pair gp;
int *r;
void use(void) {
	fill(&gp);
	r = gp.fst;
}`},
	}
	res, err := frontend.Load(srcs, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rv *ir.Object
	for _, o := range res.IR.Objects {
		if o.Sym != nil && o.Sym.Name == "r" {
			rv = o
		}
	}
	for _, mk := range []func() core.Strategy{
		func() core.Strategy { return core.NewCIS() },
		func() core.Strategy { return core.NewOffsets(layout.New(nil)) },
	} {
		result := core.Analyze(res.IR, mk())
		got := targetObjs(result, rv)
		if !got["ga"] {
			t.Errorf("%s: pts(r) = %v, want ga across TUs", result.Strategy.Name(), keys(got))
		}
	}
}

// TestCISUnnamedBitFieldPairing: reading a named bit-field through a
// structure whose matching common-initial-sequence member is an unnamed
// bit-field maps to the enclosing candidate cell — the leaf table has no
// node for an unnamed field, so no cell gets an empty path component.
func TestCISUnnamedBitFieldPairing(t *testing.T) {
	res := loadIR(t, `
struct A { int x : 3; int *p; };
struct B { int : 3; int *q; };
struct W { struct B s; } w;
int y, v;
void f(void) {
	struct A *pa = (struct A *)&w.s;
	w.s.q = &y;
	v = pa->x;
}
`, nil)
	r := core.Analyze(res.IR, core.NewCIS())
	found := false
	for _, c := range r.SortedCells() {
		for _, tgt := range r.PointsToCell(c).Sorted() {
			name := tgt.String()
			if strings.HasSuffix(name, ".") || strings.Contains(name, "..") {
				t.Errorf("%s -> %s: empty path component", c, name)
			}
			found = found || name == "w.s"
		}
	}
	if !found {
		t.Error("no temporary points to the enclosing cell w.s")
	}
}
