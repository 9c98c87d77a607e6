package core

// Property-based tests (testing/quick) over the framework's core data
// structures: type flattening, normalization, candidate search, offset
// canonicalization and solver determinism.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cc/layout"
	"repro/internal/cc/types"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// genType builds a random C type tree.
func genType(r *rand.Rand, u *types.Universe, depth int) *types.Type {
	if depth <= 0 {
		return genScalar(r, u)
	}
	switch r.Intn(6) {
	case 0:
		return types.PointerTo(genType(r, u, depth-1))
	case 1:
		return types.ArrayOf(genType(r, u, depth-1), int64(1+r.Intn(8)))
	case 2, 3:
		return genRecord(r, u, depth-1, false)
	case 4:
		return genRecord(r, u, depth-1, true)
	default:
		return genScalar(r, u)
	}
}

var scalarKinds = []types.Kind{
	types.Char, types.SChar, types.UChar, types.Short, types.UShort,
	types.Int, types.UInt, types.Long, types.ULong, types.Float, types.Double,
}

func genScalar(r *rand.Rand, u *types.Universe) *types.Type {
	return u.Basic(scalarKinds[r.Intn(len(scalarKinds))])
}

var recordCounter int

func genRecord(r *rand.Rand, u *types.Universe, depth int, union bool) *types.Type {
	recordCounter++
	t := u.NewRecord("", union)
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		name := string(rune('a'+i)) + "f"
		t.Record.Fields = append(t.Record.Fields, types.Field{
			Name: name, Type: genType(r, u, depth-1), BitWidth: -1,
		})
	}
	t.Record.Complete = true
	return t
}

func TestPropertyLeafPathsResolve(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		typ := genType(r, u, 4)
		tb := newLeafTable(typ)
		if len(tb.leaves) == 0 {
			t.Fatalf("type %s has no leaves", typ)
		}
		for _, l := range tb.leaves {
			if n, ok := tb.walk(0, tb.nodes[l].comps); !ok || n != l || tb.nodes[l].typ == nil {
				t.Fatalf("leaf %q of %s does not resolve", tb.nodes[l].path, typ)
			}
		}
	}
}

func TestPropertyNormalizeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		typ := genType(r, u, 4)
		tb := newLeafTable(typ)
		for _, l := range tb.leaves {
			n1 := tb.normalizeFrom(0, tb.nodes[l].comps)
			n2 := tb.normalizeFrom(0, tb.nodes[n1].comps)
			if n1 != n2 {
				t.Fatalf("normalize not idempotent on %s: %q -> %q -> %q",
					typ, tb.nodes[l].path, tb.nodes[n1].path, tb.nodes[n2].path)
			}
		}
		// The empty path normalizes to the first leaf (or a union cell).
		n := tb.nodes[0].norm
		if tb.normalizeFrom(0, tb.nodes[n].comps) != n {
			t.Fatalf("normalize(ε) not stable on %s: %q", typ, tb.nodes[n].path)
		}
	}
}

func TestPropertyCandidatesNormalizeBack(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		typ := genType(r, u, 4)
		tb := newLeafTable(typ)
		for _, l := range tb.leaves {
			norm := tb.nodes[l].norm
			found := false
			for _, cand := range tb.nodes[norm].cands {
				if tb.nodes[cand.node].norm != norm {
					t.Fatalf("candidate %q of %s does not normalize back to %q",
						tb.nodes[cand.node].path, typ, tb.nodes[norm].path)
				}
				// The cell itself must always be among the candidates.
				found = found || cand.node == norm
			}
			if !found {
				t.Fatalf("cell %q missing from its own candidates on %s", tb.nodes[norm].path, typ)
			}
		}
	}
}

func TestPropertyFollowingLeavesSuffix(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		typ := genType(r, u, 4)
		f := NewCollapseOnCast()
		obj := &ir.Object{Name: "o", Type: typ}
		leaves := f.table(typ).leaves
		// Smearing from the first leaf is everything; from the last leaf
		// it is exactly that leaf.
		first := f.smear(Cell{Obj: obj, Node: leaves[0]})
		if len(first) != len(leaves) {
			t.Fatalf("smear(first) = %d leaves, want %d on %s",
				len(first), len(leaves), typ)
		}
		last := f.smear(Cell{Obj: obj, Node: leaves[len(leaves)-1]})
		if len(last) != 1 || last[0].Node != leaves[len(leaves)-1] {
			t.Fatalf("smear(last) = %v, want the last leaf on %s", last, typ)
		}
	}
}

func TestPropertyLeafCountConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		typ := genType(r, u, 4)
		// leafCount counts through unions, the table collapses them, so
		// count ≥ leaves; equal when no unions are present.
		if n := len(newLeafTable(typ).leaves); leafCount(typ) < n {
			t.Fatalf("leafCount %d < leaves %d on %s", leafCount(typ), n, typ)
		}
	}
}

func TestPropertyOffsetsCanonBounds(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	u := types.NewUniverse()
	lay := layout.New(nil)
	s := NewOffsets(lay)
	nextID := 0
	for i := 0; i < 300; i++ {
		typ := genType(r, u, 4)
		size := lay.Sizeof(typ)
		if size <= 0 {
			continue
		}
		nextID++
		obj := &ir.Object{ID: nextID, Name: "o", Kind: ir.ObjVar, Type: typ}
		for trial := 0; trial < 20; trial++ {
			off := r.Int63n(3 * size)
			got, ok := s.canon(obj, off)
			if !ok {
				continue
			}
			if got < 0 || got >= size {
				t.Fatalf("canon(%s, %d) = %d outside [0,%d)", typ, off, got, size)
			}
			// Idempotence.
			got2, ok2 := s.canon(obj, got)
			if !ok2 || got2 != got {
				t.Fatalf("canon not idempotent on %s: %d -> %d -> %d(%v)",
					typ, off, got, got2, ok2)
			}
		}
		// Every static leaf offset must be canonical already.
		for _, c := range s.CellsOf(obj) {
			got, ok := s.canon(obj, c.Off)
			if !ok || got != c.Off {
				t.Fatalf("leaf offset %d of %s not canonical (got %d, %v)",
					c.Off, typ, got, ok)
			}
		}
	}
}

func TestPropertyLayoutInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	u := types.NewUniverse()
	lay := layout.New(nil)
	for i := 0; i < 300; i++ {
		typ := genRecord(r, u, 3, false)
		l := lay.Of(typ.Record)
		var prev int64 = -1
		for j, f := range typ.Record.Fields {
			off := l.Offsets[j]
			if off < 0 || off+lay.Sizeof(f.Type) > l.Size {
				t.Fatalf("field %s of %s at %d overruns size %d", f.Name, typ, off, l.Size)
			}
			if off <= prev && lay.Sizeof(typ.Record.Fields[j-1].Type) > 0 {
				t.Fatalf("field %s of %s at %d not after previous at %d", f.Name, typ, off, prev)
			}
			if a := lay.Alignof(f.Type); a > 0 && off%a != 0 {
				t.Fatalf("field %s of %s at %d misaligned (align %d)", f.Name, typ, off, a)
			}
			prev = off
		}
		if l.Align > 0 && l.Size%l.Align != 0 {
			t.Fatalf("size %d of %s not a multiple of align %d", l.Size, typ, l.Align)
		}
	}
}

func TestPropertyCompatibleReflexiveSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		a := genType(r, u, 3)
		b := genType(r, u, 3)
		if !types.Compatible(a, a) {
			t.Fatalf("Compatible(%s, %s) not reflexive", a, a)
		}
		if types.Compatible(a, b) != types.Compatible(b, a) {
			t.Fatalf("Compatible(%s, %s) not symmetric", a, b)
		}
		if types.CompatibleLax(a, b) != types.CompatibleLax(b, a) {
			t.Fatalf("CompatibleLax(%s, %s) not symmetric", a, b)
		}
		// Strict compatibility implies lax compatibility.
		if types.Compatible(a, b) && !types.CompatibleLax(a, b) {
			t.Fatalf("Compatible but not CompatibleLax: %s vs %s", a, b)
		}
	}
}

func TestPropertyCISPairsBounded(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		a := genRecord(r, u, 2, false)
		b := genRecord(r, u, 2, false)
		pairs := types.CommonInitialSequence(a.Record, b.Record)
		max := len(a.Record.Fields)
		if len(b.Record.Fields) < max {
			max = len(b.Record.Fields)
		}
		if len(pairs) > max {
			t.Fatalf("CIS longer than the shorter record: %d > %d", len(pairs), max)
		}
		if len(types.CommonInitialSequence(b.Record, a.Record)) != len(pairs) {
			t.Fatal("CIS not symmetric in length")
		}
		// CIS with itself covers every field.
		self := types.CommonInitialSequence(a.Record, a.Record)
		if len(self) != len(a.Record.Fields) {
			t.Fatalf("CIS(a,a) = %d pairs, want %d", len(self), len(a.Record.Fields))
		}
	}
}

func TestPropertySolverDeterministic(t *testing.T) {
	// Same program, same strategy → identical fact counts and metric,
	// regardless of map iteration order inside the solver.
	seeds := []uint32{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		src := genWorkload(seed)
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var facts []int
		var sizes []float64
		for trial := 0; trial < 3; trial++ {
			r := Analyze(res.IR, NewCIS())
			facts = append(facts, r.TotalFacts())
			sizes = append(sizes, r.AvgDerefSetSize())
		}
		for i := 1; i < len(facts); i++ {
			if facts[i] != facts[0] || sizes[i] != sizes[0] {
				t.Fatalf("seed %d: nondeterministic: facts %v sizes %v", seed, facts, sizes)
			}
		}
	}
}

func TestPropertyPrecisionOrdering(t *testing.T) {
	// Collapse Always (expanded) must never be more precise than CIS on
	// arbitrary generated workloads.
	for seed := uint32(1); seed <= 8; seed++ {
		src := genWorkload(seed)
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ca := Analyze(res.IR, NewCollapseAlways()).AvgDerefSetSize()
		cis := Analyze(res.IR, NewCIS()).AvgDerefSetSize()
		if ca+1e-9 < cis {
			t.Errorf("seed %d: collapse-always %.3f < CIS %.3f", seed, ca, cis)
		}
	}
}

// genWorkload builds a small synthetic program without importing corpus
// (which would create an import cycle through this package's tests).
func genWorkload(seed uint32) []frontend.Source {
	r := rand.New(rand.NewSource(int64(seed)))
	src := `
struct A { int *a1; char *a2; struct A *next; } ga, gb;
struct B { int *b1; char *b2; } gc;
int t1, t2, t3;
char c1, c2;
int *sink; char *csink;
int main(void) {
`
	stmts := []string{
		"ga.a1 = &t1;",
		"ga.a2 = &c1;",
		"gb.a1 = &t2;",
		"gb.next = &ga;",
		"gc.b1 = &t3;",
		"gc.b2 = &c2;",
		"sink = ga.a1;",
		"sink = gb.next->a1;",
		"csink = ((struct B *)&ga)->b2;",
		"sink = ((struct A *)&gc)->a1;",
		"ga = *(struct A *)&gb;",
		"csink = ga.a2;",
	}
	n := 4 + r.Intn(8)
	for i := 0; i < n; i++ {
		src += "\t" + stmts[r.Intn(len(stmts))] + "\n"
	}
	src += "\treturn 0;\n}\n"
	return []frontend.Source{{Name: "gen.c", Text: src}}
}

// Keep testing/quick referenced for the signature-style property below.
func TestPropertyCellSetAdd(t *testing.T) {
	f := func(ids []int8) bool {
		set := make(CellSet)
		objs := make(map[int8]*ir.Object)
		total := 0
		for _, id := range ids {
			o, ok := objs[id]
			if !ok {
				o = &ir.Object{ID: int(id), Name: "o"}
				objs[id] = o
			}
			if set.Add(Cell{Obj: o}) {
				total++
			}
		}
		return set.Len() == total && set.Len() == len(objs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
