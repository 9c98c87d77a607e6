package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cc/types"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// handBuiltTypes are record shapes the generators rarely or never produce:
// nesting with a struct first field, unions at several depths, arrays of
// records, incomplete and empty records, unnamed bit-fields (leading,
// interior, and as the only field) and a struct whose first field is one.
func handBuiltTypes() []*types.Type {
	u := types.NewUniverse()
	i, p := u.Basic(types.Int), types.PointerTo(u.Basic(types.Int))
	rec := func(union bool, fields ...types.Field) *types.Type {
		t := u.NewRecord("", union)
		t.Record.Fields = fields
		t.Record.Complete = true
		return t
	}
	f := func(name string, t *types.Type) types.Field { return types.Field{Name: name, Type: t, BitWidth: -1} }
	pad := func(w int) types.Field { return types.Field{Type: i, BitWidth: w} }

	inner := rec(false, f("x", p), f("y", p))
	un := rec(true, f("a", inner), f("b", p), f("c", types.ArrayOf(inner, 2)))
	outer := rec(false, f("in", inner), f("u", un), f("arr", types.ArrayOf(inner, 4)), f("z", p))
	incomplete := u.NewRecord("fwd", false)
	empty := rec(false)
	onlyPad := rec(false, pad(3))
	leadPad := rec(false, pad(2), f("a", p), f("b", p))
	midPad := rec(false, f("a", p), pad(5), f("b", inner))
	nestedPad := rec(false, f("first", onlyPad), f("s", leadPad), f("t", p))
	deep := rec(false, f("o", outer), f("n", rec(false, f("u", un), f("q", p))))
	return []*types.Type{
		i, p, inner, un, outer, types.ArrayOf(outer, 3), incomplete, empty,
		rec(false, f("inc", incomplete), f("e", empty), f("k", p)),
		onlyPad, leadPad, midPad, nestedPad, deep,
		rec(true, f("s", outer), f("t", deep)),
	}
}

// corpusTypes collects every type reachable from the objects of the corpus
// programs and of two generated cast-heavy programs: object types, pointee,
// element and field types.
func corpusTypes(t *testing.T) []*types.Type {
	all, names, err := corpus.All()
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([][]frontend.Source, 0, len(names)+2)
	for _, n := range names {
		srcs = append(srcs, all[n])
	}
	srcs = append(srcs, corpus.Generate(corpus.DefaultGenParams()),
		corpus.Generate(corpus.GenParams{NStructs: 24, NFields: 8, NObjects: 2, NDerefs: 50, CastDensity: 25, Seed: 1}))
	seen := make(map[*types.Type]bool)
	var out []*types.Type
	var visit func(*types.Type)
	visit = func(ty *types.Type) {
		if ty == nil || seen[ty] {
			return
		}
		seen[ty] = true
		out = append(out, ty)
		switch {
		case ty.Kind == types.Ptr || ty.Kind == types.Array:
			visit(ty.Elem)
		case ty.IsRecord():
			for i := range ty.Record.Fields {
				visit(ty.Record.Fields[i].Type)
			}
		}
	}
	for _, src := range srcs {
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.IR.Objects {
			visit(o.Type)
		}
	}
	return out
}

func joined(ps []ir.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = joinPath(p)
	}
	return out
}

func nodePaths(tb *leafTable, ns []int32) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = tb.nodes[n].path
	}
	return out
}

// checkLeafTable compares t's leaf table with the string-path reference
// (flatten_ref_test.go) node for node.
func checkLeafTable(t *testing.T, ty *types.Type) {
	t.Helper()
	tb := newLeafTable(ty)
	leaves := leafPaths(ty)
	if got, want := nodePaths(tb, tb.leaves), joined(leaves); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: leaves %q, reference %q", ty, got, want)
	}
	paths := func(tb *leafTable, lo int) []string { return nodePaths(tb, tb.leaves[lo:]) }
	for n := range tb.nodes {
		nd := &tb.nodes[n]
		id := int32(n)
		if joinPath(nd.comps) != nd.path {
			t.Fatalf("%s: node %d path %q, components %v", ty, n, nd.path, nd.comps)
		}
		if got, ok := tb.walk(0, nd.comps); !ok || got != id {
			t.Fatalf("%s: walk(%q) = %d,%v, want node %d", ty, nd.path, got, ok, n)
		}
		if got := nodePath(ty, id); got != nd.path {
			t.Fatalf("%s: nodePath(%d) = %q, want %q", ty, n, got, nd.path)
		}
		if want := typeAt(ty, nd.comps); nd.typ != want {
			t.Fatalf("%s: type at %q is %v, reference %v", ty, nd.path, nd.typ, want)
		}
		if got, want := tb.nodes[nd.norm].path, joinPath(normalizePath(ty, nd.comps)); got != want {
			t.Fatalf("%s: normalize(%q) = %q, reference %q", ty, nd.path, got, want)
		}
		if got, want := tb.nodes[nd.first].path, joinPath(descendFirstFieldPath(nd.typ, nd.comps)); got != want {
			t.Fatalf("%s: first field of %q = %q, reference %q", ty, nd.path, got, want)
		}
		// Candidates, in order, with their types.
		ref := candidatesFor(ty, nd.comps)
		if len(ref) != len(nd.cands) {
			t.Fatalf("%s: %q has %d candidates, reference %d", ty, nd.path, len(nd.cands), len(ref))
		}
		for i, c := range nd.cands {
			if tb.nodes[c.node].path != joinPath(ref[i].path) || c.typ != ref[i].typ {
				t.Fatalf("%s: candidate %d of %q is %q, reference %q", ty, i, nd.path, tb.nodes[c.node].path, joinPath(ref[i].path))
			}
			// Extending a candidate walks on from its node exactly as
			// normalizing the concatenated path from the root does.
			for _, rest := range []ir.Path{nil, {"x"}, {"a", "x"}, {"in", "y"}, {"nope"}} {
				got := tb.nodes[tb.normalizeFrom(c.node, rest)].path
				want := joinPath(normalizePath(ty, ref[i].path.Extend(rest...)))
				if got != want {
					t.Fatalf("%s: normalize(%q ++ %v) = %q, reference %q", ty, nd.path, rest, got, want)
				}
			}
		}
		// Smearing from the node: the suffix from its leaf rank.
		lo := 0
		if nd.leaf > 0 {
			lo = int(nd.leaf)
		}
		if got, want := paths(tb, lo), joined(followingLeaves(ty, nd.comps)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: following(%q) = %q, reference %q", ty, nd.path, got, want)
		}
		// The leaves past the node's subtree.
		var after []string
		if nd.leafLo < nd.leafHi && int(nd.leafHi) < len(tb.leaves) {
			after = paths(tb, int(nd.leafHi))
		}
		if want := joined(leavesAfterPrefix(ty, nd.comps)); fmt.Sprint(after) != fmt.Sprint(want) {
			t.Fatalf("%s: after(%q) = %q, reference %q", ty, nd.path, after, want)
		}
		// Paths that leave the type: a bogus field under the node.
		bogus := nd.comps.Extend("nope", "x")
		if got, want := tb.nodes[tb.normalizeFrom(0, bogus)].path, joinPath(normalizePath(ty, bogus)); got != want {
			t.Fatalf("%s: normalize(%v) = %q, reference %q", ty, bogus, got, want)
		}
	}
}

// TestLeafTableMatchesPathWalk pins the leaf tables to the string-path
// functions they replaced, on every type of the corpus and the generator
// and on hand-built nested, union, array, incomplete and bit-field records.
func TestLeafTableMatchesPathWalk(t *testing.T) {
	tys := append(corpusTypes(t), handBuiltTypes()...)
	records := 0
	for _, ty := range tys {
		if aggregate(ty) {
			records++
		}
		checkLeafTable(t, ty)
	}
	if records < 50 {
		t.Fatalf("only %d record types checked", records)
	}
}

// TestLeafTableMatchesPathWalkRandom is the same check over random type
// trees.
func TestLeafTableMatchesPathWalkRandom(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	u := types.NewUniverse()
	for i := 0; i < 300; i++ {
		checkLeafTable(t, genType(r, u, 4))
	}
}

// TestCellAtRoundTrip checks that CellAt reads back every rendered path and
// refuses one the type does not have.
func TestCellAtRoundTrip(t *testing.T) {
	for _, ty := range handBuiltTypes() {
		obj := &ir.Object{Name: "o", Type: ty}
		tb := newLeafTable(ty)
		for n := range tb.nodes {
			c, ok := CellAt(obj, 0, tb.nodes[n].path, false)
			if !ok || c.Node != int32(n) || c.Path() != tb.nodes[n].path {
				t.Fatalf("%s: CellAt(%q) = %+v, %v", ty, tb.nodes[n].path, c, ok)
			}
		}
		if _, ok := CellAt(obj, 0, "nope", false); ok {
			t.Fatalf("%s: CellAt accepted a missing field", ty)
		}
	}
}

// TestLeafTablesConcurrentNormalize builds a strategy's leaf tables from
// several goroutines at once, as concurrent Report queries do after a solve
// (Normalize, ExpandedSize and the renderer's pathOf), and checks every
// answer against a strategy used from one goroutine.
func TestLeafTablesConcurrentNormalize(t *testing.T) {
	res, err := frontend.Load(corpus.Generate(corpus.DefaultGenParams()), frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := NewCIS()
	type answer struct {
		cell Cell
		path string
		size int
	}
	expect := make([]answer, len(res.IR.Objects))
	for i, o := range res.IR.Objects {
		c := want.Normalize(o, nil)
		expect[i] = answer{c, want.pathOf(c), want.ExpandedSize(c)}
	}
	shared := NewCIS()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range res.IR.Objects {
				c := shared.Normalize(o, nil)
				if got := (answer{c, shared.pathOf(c), shared.ExpandedSize(c)}); got != expect[i] {
					t.Errorf("%s: concurrent answer %+v, want %+v", o.Name, got, expect[i])
				}
			}
		}()
	}
	wg.Wait()
}
