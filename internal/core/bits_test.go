package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cc/types"
	"repro/internal/ir"
)

// TestBitsAgainstMap drives Bits with a fixed-seed random operation stream,
// mirroring every step into a plain map and checking full agreement.
func TestBitsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b Bits
	ref := make(map[CellID]bool)
	// A spread of ids across many blocks plus dense runs within one block.
	idOf := func() CellID {
		if rng.Intn(2) == 0 {
			return CellID(rng.Intn(128)) // dense low range
		}
		return CellID(rng.Intn(1 << 20)) // sparse high range
	}
	for step := 0; step < 20000; step++ {
		id := idOf()
		switch rng.Intn(4) {
		case 0, 1: // Add twice as often as the rest
			want := !ref[id]
			if got := b.Add(id); got != want {
				t.Fatalf("step %d: Add(%d) = %v, want %v", step, id, got, want)
			}
			ref[id] = true
		case 2:
			if got := b.Has(id); got != ref[id] {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, id, got, ref[id])
			}
		case 3:
			want := ref[id]
			if got := b.Remove(id); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", step, id, got, want)
			}
			delete(ref, id)
		}
		if b.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, b.Len(), len(ref))
		}
	}
	checkBitsEqual(t, &b, ref)
}

// checkBitsEqual asserts that Iterate and AppendTo both enumerate exactly
// ref's ids in ascending order.
func checkBitsEqual(t *testing.T, b *Bits, ref map[CellID]bool) {
	t.Helper()
	want := make([]CellID, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []CellID
	b.Iterate(func(id CellID) { got = append(got, id) })
	if len(got) != len(want) {
		t.Fatalf("Iterate yielded %d ids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Iterate[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	got2 := b.AppendTo(nil)
	for i := range got2 {
		if got2[i] != want[i] {
			t.Fatalf("AppendTo[%d] = %d, want %d", i, got2[i], want[i])
		}
	}
}

func TestBitsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var a, b Bits
		refA := make(map[CellID]bool)
		refB := make(map[CellID]bool)
		for i := 0; i < rng.Intn(200); i++ {
			id := CellID(rng.Intn(1 << 14))
			a.Add(id)
			refA[id] = true
		}
		for i := 0; i < rng.Intn(200); i++ {
			id := CellID(rng.Intn(1 << 14))
			b.Add(id)
			refB[id] = true
		}
		wantNew := 0
		for id := range refB {
			if !refA[id] {
				wantNew++
			}
		}
		switch trial % 3 {
		case 0:
			if got := a.UnionInPlace(&b); got != wantNew {
				t.Fatalf("trial %d: UnionInPlace added %d, want %d", trial, got, wantNew)
			}
		case 1:
			diff := a.UnionDiff(&b, nil)
			if len(diff) != wantNew {
				t.Fatalf("trial %d: UnionDiff returned %d ids, want %d", trial, len(diff), wantNew)
			}
			for i, id := range diff {
				if refA[id] || !refB[id] {
					t.Fatalf("trial %d: UnionDiff id %d not newly-set", trial, id)
				}
				if i > 0 && diff[i-1] >= id {
					t.Fatalf("trial %d: UnionDiff not ascending", trial)
				}
			}
		case 2: // self-union is a no-op
			n := a.Len()
			if got := a.UnionInPlace(&a); got != 0 || a.Len() != n {
				t.Fatalf("trial %d: self-union changed the set", trial)
			}
			if diff := a.UnionDiff(&a, nil); len(diff) != 0 {
				t.Fatalf("trial %d: self-UnionDiff returned ids", trial)
			}
			continue
		}
		for id := range refB {
			refA[id] = true
		}
		checkBitsEqual(t, &a, refA)
		// b must be untouched.
		checkBitsEqual(t, &b, refB)
	}
}

// TestBitsUnionAllAgainstPairwise cross-checks the k-way merge against a
// fold of UnionInPlace over random source lists, including high fan-in.
func TestBitsUnionAllAgainstPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(12) // beyond the stack-array fast path (8)
		var a, b Bits
		srcs := make([]*Bits, k)
		for i := range srcs {
			srcs[i] = new(Bits)
			for j := 0; j < rng.Intn(60); j++ {
				srcs[i].Add(CellID(rng.Intn(1 << 12)))
			}
		}
		for j := 0; j < rng.Intn(60); j++ {
			id := CellID(rng.Intn(1 << 12))
			a.Add(id)
			b.Add(id)
		}
		wantAdded := 0
		for _, o := range srcs {
			wantAdded += b.UnionInPlace(o)
		}
		if got := a.UnionAll(srcs); got != wantAdded {
			t.Fatalf("trial %d: UnionAll added %d, pairwise added %d", trial, got, wantAdded)
		}
		if a.Len() != b.Len() {
			t.Fatalf("trial %d: UnionAll Len %d, pairwise Len %d", trial, a.Len(), b.Len())
		}
		b.Iterate(func(id CellID) {
			if !a.Has(id) {
				t.Fatalf("trial %d: UnionAll missing %d", trial, id)
			}
		})
	}
}

// benchBits builds a deterministic set of n ids spread over the given id
// range (shared benchmark fixture).
func benchBits(seed int64, n, idRange int) *Bits {
	rng := rand.New(rand.NewSource(seed))
	b := new(Bits)
	for i := 0; i < n; i++ {
		b.Add(CellID(rng.Intn(idRange)))
	}
	return b
}

// BenchmarkBitsUnionDiff pins the drain-path diff merge: "grow" unions a
// mostly-new source into a small receiver each iteration (the case the
// o.n pre-size targets — without it the append loop reallocates buf
// mid-merge), and "subset" unions a contained source (the popcount early
// exit: no writes at all).
func BenchmarkBitsUnionDiff(b *testing.B) {
	src := benchBits(7, 512, 1<<14)
	b.Run("grow", func(b *testing.B) {
		var buf []CellID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst := benchBits(11, 32, 1<<14)
			buf = dst.UnionDiff(src, buf[:0])
		}
	})
	b.Run("subset", func(b *testing.B) {
		dst := benchBits(7, 512, 1<<14) // same seed: src ⊆ dst
		dst.UnionInPlace(src)
		var buf []CellID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = dst.UnionDiff(src, buf[:0])
		}
	})
}

// BenchmarkBitsUnionAll compares the single-pass k-way barrier merge with
// the pairwise fold it replaces, at the fan-in the parallel executor
// produces (one pending buffer per publishing shard).
func BenchmarkBitsUnionAll(b *testing.B) {
	const k = 6
	srcs := make([]*Bits, k)
	for i := range srcs {
		srcs[i] = benchBits(int64(20+i), 256, 1<<14)
	}
	b.Run("unionall", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var dst Bits
			dst.UnionAll(srcs)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var dst Bits
			for _, o := range srcs {
				dst.UnionInPlace(o)
			}
		}
	})
}

func TestBitsClear(t *testing.T) {
	var b Bits
	for i := 0; i < 100; i++ {
		b.Add(CellID(i * 97))
	}
	b.Clear()
	if b.Len() != 0 || b.Has(0) || b.Has(97) {
		t.Fatal("Clear did not empty the set")
	}
	if !b.Add(5) || b.Len() != 1 {
		t.Fatal("set unusable after Clear")
	}
}

func TestCellTable(t *testing.T) {
	tab := NewCellTable()
	o1 := &ir.Object{ID: 1, Name: "a"}
	o2 := &ir.Object{ID: 2, Name: "b"}
	cells := []Cell{
		{Obj: o1},
		{Obj: o1, Off: 8, ByOff: true},
		{Obj: o2, Node: 2},
		{Obj: o1, Off: 0, ByOff: true}, // distinct from the bare o1 cell
	}
	for i, c := range cells {
		if id := tab.ID(c); id != CellID(i) {
			t.Fatalf("ID(%v) = %d, want %d (first-seen order)", c, id, i)
		}
	}
	for i, c := range cells {
		if id := tab.ID(c); id != CellID(i) {
			t.Fatalf("re-intern ID(%v) = %d, want %d", c, id, i)
		}
		if got := tab.Cell(CellID(i)); got != c {
			t.Fatalf("Cell(%d) = %v, want %v", i, got, c)
		}
		if id, ok := tab.Find(c); !ok || id != CellID(i) {
			t.Fatalf("Find(%v) = %d,%v", c, id, ok)
		}
	}
	if _, ok := tab.Find(Cell{Obj: o2}); ok {
		t.Fatal("Find returned an id for a never-interned cell")
	}
	if tab.Len() != len(cells) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(cells))
	}
}

// TestCellTableSlots covers the slot table's edge cases: interior-node
// cells, cells that must go to the overflow map, and a foreign object whose
// ID collides with one of the program's.
func TestCellTableSlots(t *testing.T) {
	u := types.NewUniverse()
	p := types.PointerTo(u.Basic(types.Int))
	rec := func(fields ...types.Field) *types.Type {
		r := u.NewRecord("", false)
		r.Record.Fields = fields
		r.Record.Complete = true
		return r
	}
	inner := rec(types.Field{Name: "x", Type: p, BitWidth: -1}, types.Field{Name: "y", Type: p, BitWidth: -1})
	outer := rec(types.Field{Name: "in", Type: inner, BitWidth: -1}, types.Field{Name: "z", Type: p, BitWidth: -1})
	s := &ir.Object{ID: 1, Name: "s", Type: outer}
	v := &ir.Object{ID: 2, Name: "v", Type: p}
	tab := newCellTable(&ir.Program{Objects: []*ir.Object{s, v}}, NewCIS().nodeCount, 0)
	// outer's leaf table: the root, in, in.x, in.y and z; v is a scalar.
	if len(tab.slot) != 6 {
		t.Fatalf("%d slots, want 6", len(tab.slot))
	}
	at := func(obj *ir.Object, path string) Cell {
		c, ok := CellAt(obj, 0, path, false)
		if !ok {
			t.Fatalf("no path %q", path)
		}
		return c
	}
	check := func(c Cell, want CellID) {
		t.Helper()
		if id := tab.ID(c); id != want {
			t.Fatalf("ID(%v) = %d, want %d", c, id, want)
		}
		if id, ok := tab.Find(c); !ok || id != want {
			t.Fatalf("Find(%v) = %d, %v, want %d", c, id, ok, want)
		}
		if tab.Cell(want) != c {
			t.Fatalf("Cell(%d) = %v, want %v", want, tab.Cell(want), c)
		}
	}

	// Interior and leaf nodes each get their own slot.
	for i, c := range []Cell{at(s, "in"), at(s, "in.x"), {Obj: s}, {Obj: v}} {
		if tab.slotOf(c) < 0 {
			t.Fatalf("%v has no slot", c)
		}
		check(c, CellID(i))
	}
	if len(tab.over) != 0 {
		t.Fatalf("overflow map holds %d cells, want 0", len(tab.over))
	}

	// A foreign object with a colliding ID is never found as s, and
	// interning it does not disturb s.
	foreign := &ir.Object{ID: 1, Name: "f", Type: outer}
	if _, ok := tab.Find(Cell{Obj: foreign}); ok {
		t.Fatal("Find found a foreign object's never-interned cell")
	}
	check(Cell{Obj: foreign}, 4)
	check(Cell{Obj: s}, 2)

	// The unknown object, byte cells and a cell whose slot is taken (v's
	// offset-0 byte cell shares the whole-object cell's slot) round-trip
	// through the overflow map.
	unknown := &ir.Object{ID: -1, Name: "<unknown>"}
	for i, c := range []Cell{{Obj: unknown}, {Obj: v, Off: 8, ByOff: true}, {Obj: v, ByOff: true}} {
		check(c, CellID(5+i))
	}
	if len(tab.over) != 4 {
		t.Fatalf("overflow map holds %d cells, want 4", len(tab.over))
	}
	check(at(s, "in"), 0)
	check(Cell{Obj: v}, 3)

	// A foreign object interned first takes the slot; the program's own
	// cell then overflows and both stay distinct.
	tab = newCellTable(&ir.Program{Objects: []*ir.Object{s, v}}, NewCIS().nodeCount, 0)
	check(Cell{Obj: foreign}, 0)
	check(Cell{Obj: s}, 1)
}
