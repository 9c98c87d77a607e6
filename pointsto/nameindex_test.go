package pointsto

import (
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
