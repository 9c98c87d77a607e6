package core

// Direct unit tests of the four strategies' normalize/lookup/resolve on
// hand-constructed types, independent of the C front end. These pin the
// §4.2.2/§4.3 definitions at the function level; solver_test.go covers the
// same definitions through whole programs.

import (
	"testing"

	"repro/internal/cc/layout"
	"repro/internal/cc/types"
	"repro/internal/ir"
)

type fixture struct {
	u    *types.Universe
	lay  *layout.Engine
	intT *types.Type
	pInt *types.Type

	structS *types.Type // struct S { int *s1; int s2; char *s3; }
	structT *types.Type // struct T { int *t1; int *t2; char *t3; }

	objT   *ir.Object // a struct T object
	nextID int
}

func newFixture() *fixture {
	f := &fixture{u: types.NewUniverse(), lay: layout.New(nil)}
	f.intT = f.u.Basic(types.Int)
	f.pInt = types.PointerTo(f.intT)
	pChar := types.PointerTo(f.u.Basic(types.Char))

	f.structS = f.u.NewRecord("S", false)
	f.structS.Record.Fields = []types.Field{
		{Name: "s1", Type: f.pInt, BitWidth: -1},
		{Name: "s2", Type: f.intT, BitWidth: -1},
		{Name: "s3", Type: pChar, BitWidth: -1},
	}
	f.structS.Record.Complete = true

	f.structT = f.u.NewRecord("T", false)
	f.structT.Record.Fields = []types.Field{
		{Name: "t1", Type: f.pInt, BitWidth: -1},
		{Name: "t2", Type: f.pInt, BitWidth: -1},
		{Name: "t3", Type: pChar, BitWidth: -1},
	}
	f.structT.Record.Complete = true

	f.objT = f.newObj("t", f.structT)
	return f
}

func (f *fixture) newObj(name string, t *types.Type) *ir.Object {
	f.nextID++
	return &ir.Object{ID: f.nextID, Name: name, Kind: ir.ObjVar, Type: t}
}

func cellStrings(cells []Cell) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.String()
	}
	return out
}

func TestUnitCollapseAlways(t *testing.T) {
	f := newFixture()
	s := NewCollapseAlways()
	if got := s.Normalize(f.objT, ir.Path{"t2"}); got != (Cell{Obj: f.objT}) {
		t.Errorf("normalize = %v", got)
	}
	cells := s.Lookup(f.structS, ir.Path{"s3"}, Cell{Obj: f.objT})
	if len(cells) != 1 || cells[0].Obj != f.objT || cells[0].Node != 0 {
		t.Errorf("lookup = %v", cellStrings(cells))
	}
	dst := f.newObj("d", f.structS)
	edges := s.Resolve(Cell{Obj: dst}, Cell{Obj: f.objT}, f.structS)
	if len(edges) != 1 {
		t.Fatalf("resolve edges = %d", len(edges))
	}
	if edges[0].Dst.Obj != dst || edges[0].Src.Obj != f.objT {
		t.Errorf("resolve = %v", edges[0])
	}
}

func TestUnitCollapseOnCastLookup(t *testing.T) {
	f := newFixture()
	s := NewCollapseOnCast()
	tgt := s.Normalize(f.objT, nil) // t.t1

	// Matching declared type: exact field.
	cells := s.Lookup(f.structT, ir.Path{"t2"}, tgt)
	if len(cells) != 1 || cells[0].String() != "t.t2" {
		t.Errorf("matched lookup = %v", cellStrings(cells))
	}
	// Mismatched declared type: all fields from the target on.
	cells = s.Lookup(f.structS, ir.Path{"s3"}, tgt)
	want := map[string]bool{"t.t1": true, "t.t2": true, "t.t3": true}
	if len(cells) != 3 {
		t.Fatalf("mismatched lookup = %v", cellStrings(cells))
	}
	for _, c := range cells {
		if !want[c.String()] {
			t.Errorf("unexpected cell %s", c)
		}
	}
	// Mismatch from a mid-struct target: only following fields.
	mid := s.Normalize(f.objT, ir.Path{"t2"})
	cells = s.Lookup(f.structS, ir.Path{"s1"}, mid)
	if len(cells) != 2 {
		t.Errorf("mid lookup = %v", cellStrings(cells))
	}
}

func TestUnitCISLookup(t *testing.T) {
	f := newFixture()
	s := NewCIS()
	tgt := s.Normalize(f.objT, nil)

	// s1/t1 and... S = {int* s1; int s2; char* s3}, T = {int* t1; int*
	// t2; char* t3}: the CIS is ⟨s1,t1⟩ only (int vs int* at position 1).
	cells := s.Lookup(f.structS, ir.Path{"s1"}, tgt)
	if len(cells) != 1 || cells[0].String() != "t.t1" {
		t.Errorf("inside-CIS lookup = %v", cellStrings(cells))
	}
	// s2 is outside the CIS: all fields from the first field after it.
	cells = s.Lookup(f.structS, ir.Path{"s2"}, tgt)
	if len(cells) != 2 {
		t.Fatalf("outside-CIS lookup = %v", cellStrings(cells))
	}
	got := map[string]bool{}
	for _, c := range cells {
		got[c.String()] = true
	}
	if !got["t.t2"] || !got["t.t3"] {
		t.Errorf("outside-CIS lookup = %v", cellStrings(cells))
	}
}

func TestUnitOffsetsLookup(t *testing.T) {
	f := newFixture()
	s := NewOffsets(f.lay)
	tgt := Cell{Obj: f.objT} // offset 0

	// offsetof(S, s3) = 16 under lp64 (ptr@0, int@8, pad, ptr@16).
	cells := s.Lookup(f.structS, ir.Path{"s3"}, tgt)
	if len(cells) != 1 || cells[0].Off != 16 {
		t.Errorf("lookup = %v", cellStrings(cells))
	}
	// Out-of-bounds access: dropped.
	far := Cell{Obj: f.objT, Off: 16}
	cells = s.Lookup(f.structS, ir.Path{"s3"}, far)
	if len(cells) != 0 {
		t.Errorf("oob lookup = %v (size of T is 24, 16+16 is out)", cellStrings(cells))
	}
}

func TestUnitOffsetsResolveRange(t *testing.T) {
	f := newFixture()
	s := NewOffsets(f.lay)
	dst := f.newObj("d", f.structS)
	edges := s.Resolve(Cell{Obj: dst}, Cell{Obj: f.objT}, f.structS)
	if len(edges) != 1 {
		t.Fatalf("edges = %d", len(edges))
	}
	e := edges[0]
	if e.Size != f.lay.Sizeof(f.structS) {
		t.Errorf("edge size = %d, want sizeof(S) = %d", e.Size, f.lay.Sizeof(f.structS))
	}
	// Propagation: a fact at t@8 lands at d@8 (inside the range).
	if got, ok := s.PropagateEdge(e, Cell{Obj: f.objT, Off: 8}); !ok || got.Off != 8 || got.Obj != dst {
		t.Errorf("propagate = %v, %v", got, ok)
	}
	// Outside the range: dropped.
	if _, ok := s.PropagateEdge(e, Cell{Obj: f.objT, Off: 100}); ok {
		t.Error("propagate accepted an out-of-range offset")
	}
	// Wrong object: dropped.
	other := f.newObj("o", f.structT)
	if _, ok := s.PropagateEdge(e, Cell{Obj: other, Off: 0}); ok {
		t.Error("propagate accepted the wrong object")
	}
}

func TestUnitFieldResolveMatchedTypes(t *testing.T) {
	f := newFixture()
	for _, s := range []Strategy{NewCollapseOnCast(), NewCIS()} {
		dst := f.newObj("d", f.structT)
		edges := s.Resolve(s.Normalize(dst, nil), s.Normalize(f.objT, nil), f.structT)
		// Matched struct copy: one exact pair per field.
		if len(edges) != 3 {
			t.Fatalf("%s: edges = %v", s.Name(), edges)
		}
		for _, e := range edges {
			if e.Dst.Path() != e.Src.Path() {
				t.Errorf("%s: pair %v copies across fields", s.Name(), e)
			}
		}
	}
}

func TestUnitFieldResolveMismatchedTypes(t *testing.T) {
	f := newFixture()
	coc := NewCollapseOnCast()
	dst := f.newObj("d", f.structS)
	// Copy T-shaped memory into an S destination with LHS type S:
	// the source side mismatches per field, producing cross pairs.
	edges := coc.Resolve(coc.Normalize(dst, nil), coc.Normalize(f.objT, nil), f.structS)
	if len(edges) <= 3 {
		t.Errorf("mismatched resolve should smear: %d edges", len(edges))
	}
}

func TestUnitLookupOnUntypedBlob(t *testing.T) {
	f := newFixture()
	blob := &ir.Object{ID: 99, Name: "blob", Kind: ir.ObjHeap} // no type
	for _, s := range []Strategy{NewCollapseOnCast(), NewCIS()} {
		cells := s.Lookup(f.structS, ir.Path{"s2"}, Cell{Obj: blob})
		if len(cells) != 1 || cells[0].Obj != blob {
			t.Errorf("%s: blob lookup = %v", s.Name(), cellStrings(cells))
		}
	}
	off := NewOffsets(f.lay)
	cells := off.Lookup(f.structS, ir.Path{"s2"}, Cell{Obj: blob})
	if len(cells) != 1 || cells[0].Off != 8 {
		t.Errorf("offsets blob lookup = %v, want offset 8", cellStrings(cells))
	}
}

func TestUnitCellsOf(t *testing.T) {
	f := newFixture()
	if got := NewCollapseAlways().CellsOf(f.objT); len(got) != 1 {
		t.Errorf("collapse CellsOf = %v", cellStrings(got))
	}
	if got := NewCIS().CellsOf(f.objT); len(got) != 3 {
		t.Errorf("cis CellsOf = %v", cellStrings(got))
	}
	if got := NewOffsets(f.lay).CellsOf(f.objT); len(got) != 3 {
		t.Errorf("offsets CellsOf = %v", cellStrings(got))
	}
}

func TestUnitRecorderFromResolveNotCounted(t *testing.T) {
	// The paper's footnote: lookups made inside resolve are not counted.
	f := newFixture()
	s := NewCIS()
	dst := f.newObj("d", f.structT)
	before := s.Recorder().LookupCalls
	s.Resolve(s.Normalize(dst, nil), s.Normalize(f.objT, nil), f.structT)
	if s.Recorder().LookupCalls != before {
		t.Errorf("resolve incremented LookupCalls by %d",
			s.Recorder().LookupCalls-before)
	}
	if s.Recorder().ResolveCalls == before {
		// ResolveCalls is a different counter; ensure it moved.
	}
	if s.Recorder().ResolveCalls == 0 {
		t.Error("ResolveCalls not counted")
	}
}
