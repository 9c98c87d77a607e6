package pointsto

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ir"
)

// TestNameIndex pins nameIndex: a symbol's name wins over the object's own,
// unnamed objects are left out, a reused name lists its objects in program
// order, and appending the second object of a name leaves the program's
// object list as it was.
func TestNameIndex(t *testing.T) {
	p1 := &ir.Object{ID: 0, Name: "f::p", Sym: &ir.Symbol{Name: "p"}}
	g := &ir.Object{ID: 1, Name: "g", Sym: &ir.Symbol{Name: "g"}}
	p2 := &ir.Object{ID: 2, Name: "g::p", Sym: &ir.Symbol{Name: "p"}}
	tmp := &ir.Object{ID: 3, Name: "t3", Kind: ir.ObjTemp}
	anon := &ir.Object{ID: 4}
	objs := []*ir.Object{p1, g, p2, tmp, anon}
	before := slices.Clone(objs)

	idx := nameIndex(objs)
	if !slices.Equal(objs, before) {
		t.Fatalf("nameIndex changed the object list: %v, want %v", objs, before)
	}
	want := map[string][]*ir.Object{"p": {p1, p2}, "g": {g}, "t3": {tmp}}
	if len(idx) != len(want) {
		t.Fatalf("nameIndex has %d names, want %d: %v", len(idx), len(want), idx)
	}
	for name, w := range want {
		if !slices.Equal(idx[name], w) {
			t.Errorf("nameIndex[%q] = %v, want %v", name, idx[name], w)
		}
	}
}

// TestNameIndexShared pins that a Session builds its name index only on
// the first query and hands that one map to the Reports it makes (solved
// or resumed), and that a single-shot AnalyzeContext builds none before a
// query.
func TestNameIndexShared(t *testing.T) {
	ctx := context.Background()
	src := []Source{{Name: "t.c", Text: "int x, *p;\nint main(void) { p = &x; return 0; }\n"}}
	cfg := Config{Strategy: CIS}

	sess, err := NewSession(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess.names.byName != nil {
		t.Fatal("NewSession built the name index before a query")
	}
	rep, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.names != sess.names || sess.names.byName != nil {
		t.Fatal("the solved Report does not share the session's unbuilt index")
	}
	if got := rep.PointsTo("p"); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("PointsTo(p) = %v", got)
	}
	idx := sess.names.byName
	if idx == nil {
		t.Fatal("a query left the index unbuilt")
	}
	sess.Names()
	if reflect.ValueOf(sess.names.byName).UnsafePointer() != reflect.ValueOf(idx).UnsafePointer() {
		t.Error("Session.Names rebuilt the index")
	}

	next, _, err := sess.UpdateContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if next.rep == nil || next.rep.names != next.names || next.names.byName != nil {
		t.Error("the resumed Report does not share the new session's unbuilt index")
	}

	single, err := AnalyzeContext(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.names.byName != nil {
		t.Error("AnalyzeContext built a name index before a query")
	}
	if got := single.Names(); !slices.Contains(got, "p") {
		t.Errorf("Names() = %v", got)
	}
}
