package core

import (
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// This file implements the strategy-level memoization of lookup and resolve
// for the field-based instances (Collapse Always and Offsets answer in O(1)
// and keep no memo). Both functions are pure: their results depend only on
// the declared type, the field selector and the target cell (plus the
// immutable type graph and layout), so within one analysis run a repeated
// call — the common case, since many statements dereference the same cells
// with the same declared types — can be answered from a cache.
//
// Invariants:
//
//   - The Recorder counts LOGICAL calls: a cache hit still increments the
//     lookup/resolve counters (and replays the memoized mismatch flag), so
//     the Figure 3 instrumentation is identical with and without the cache.
//   - Cached slices are shared across calls and must never be mutated by
//     callers; the solver only iterates them.
//   - Caches live inside a strategy instance, so concurrent analysis runs
//     (core.AnalyzeBatch) are isolated as long as each run constructs its
//     own Strategy.

// lookupKey identifies one logical lookup(τ, α, target) call by integers
// and pointers only: the selector α is its node in τ's leaf table, and the
// target is its object and node — a field-instance cell's whole identity,
// since its Off and ByOff are always zero.
type lookupKey struct {
	τ    *types.Type
	obj  *ir.Object
	path int32
	node int32
}

// resolveKey identifies one logical resolve(dst, src, τ) call the same way.
type resolveKey struct {
	τ                *types.Type
	dst, src         *ir.Object
	dstNode, srcNode int32
}

type lookupVal struct {
	cells    []Cell
	mismatch bool
}

// resolveVal is a memoized resolve result. ids, when gen is the memo's
// current generation, are the edges' endpoints as the solver of that
// generation interned them (src, dst per edge). They ride in the entry, so
// interning a result costs no second table.
type resolveVal struct {
	edges    []Edge
	ids      []CellID
	gen      uint32
	mismatch bool
}

// memoTable is the per-instance cache. The zero value is an enabled, empty
// cache; maps are allocated on first store.
type memoTable struct {
	off      bool
	lookups  map[lookupKey]lookupVal
	resolves map[resolveKey]resolveVal

	// table is the CellTable of the solve the current ids generation gen
	// belongs to; a solve with another table starts a new generation.
	table   *CellTable
	gen     uint32
	idArena []CellID // backing store for resolveVal.ids
}

// SetMemoization enables or disables the lookup/resolve caches (they are on
// by default). Disabling clears any cached entries; results are identical
// either way — the switch exists for the cache-correctness tests and as an
// ablation.
func (m *memoTable) SetMemoization(on bool) {
	m.off = !on
	if !on {
		m.lookups = nil
		m.resolves = nil
	}
}

// Memoizer is implemented by every strategy whose lookup/resolve results are
// cached; it exposes the cache switch.
type Memoizer interface {
	SetMemoization(on bool)
}

// SetMemoization flips the cache switch when the strategy supports one.
func SetMemoization(s Strategy, on bool) {
	if m, ok := s.(Memoizer); ok {
		m.SetMemoization(on)
	}
}

// selector returns the lookup memo's id for selector path on τ: its node in
// τ's leaf table. ok is false for a selector τ does not have; such a call
// is computed without the memo.
func (f *fieldOps) selector(τ *types.Type, path ir.Path) (n int32, ok bool) {
	if len(path) == 0 {
		return 0, true
	}
	if !aggregate(τ) {
		return 0, false
	}
	return f.table(τ).walk(0, path)
}

// Lookup implements Strategy: a counted lookup answered through the cache.
// On a miss the uncounted core runs and its result is stored. Either way
// the recorder counts one logical call with the call's (deterministic)
// flags.
func (f *fieldOps) Lookup(τ *types.Type, path ir.Path, target Cell) []Cell {
	var v lookupVal
	hit := false
	key := lookupKey{τ: τ, obj: target.Obj, node: target.Node}
	memo := !f.memo.off
	if memo {
		key.path, memo = f.selector(τ, path)
	}
	if memo {
		v, hit = f.memo.lookups[key]
	}
	if hit {
		f.rec.LookupCacheHits++
	} else {
		v.cells, v.mismatch = f.lk(τ, path, target)
		if memo {
			if f.memo.lookups == nil {
				f.memo.lookups = make(map[lookupKey]lookupVal)
			}
			f.memo.lookups[key] = v
		}
		f.rec.LookupCacheMisses++
	}
	f.rec.recordLookup(structsInvolved(τ, target), v.mismatch)
	return v.cells
}

// Resolve implements Strategy: a counted resolve answered through the cache,
// built via resolveVia on a miss. Unknown-extent copies (τ == nil) are not
// counted as resolve calls, matching the uncached behavior.
func (f *fieldOps) Resolve(dst, src Cell, τ *types.Type) []Edge {
	edges, _, _ := f.resolveInterned(dst, src, τ, nil, nil)
	return edges
}

// resolveInterned implements internResolver: Resolve for the dense solver.
// With the solver's table and intern function it also returns the edges'
// endpoints interned (src, dst per edge, in edge order — the order addEdge
// interns them), computed once per memo entry and solve; fresh is false
// when the entry's edges were already handed to this same solve, so every
// one of them is already in its edge set. ids is nil when the memo is off.
func (f *fieldOps) resolveInterned(dst, src Cell, τ *types.Type, table *CellTable, intern func(Cell) CellID) (edges []Edge, ids []CellID, fresh bool) {
	m := &f.memo
	if m.off {
		edges, mismatch := f.resolveVia(dst, src, τ)
		f.recordResolve(dst, src, τ, mismatch)
		f.rec.ResolveCacheMisses++
		return edges, nil, true
	}
	if table != nil && table != m.table {
		m.table = table
		m.gen++
	}
	key := resolveKey{τ: τ, dst: dst.Obj, src: src.Obj, dstNode: dst.Node, srcNode: src.Node}
	v, hit := m.resolves[key]
	if hit {
		f.rec.ResolveCacheHits++
	} else {
		v.edges, v.mismatch = f.resolveVia(dst, src, τ)
		f.rec.ResolveCacheMisses++
	}
	f.recordResolve(dst, src, τ, v.mismatch)
	switch {
	case table == nil:
		if hit {
			return v.edges, nil, true
		}
	case hit && v.gen == m.gen:
		return v.edges, v.ids, false
	default:
		v.gen = m.gen
		v.ids = m.internEdges(v.edges, intern)
	}
	if m.resolves == nil {
		m.resolves = make(map[resolveKey]resolveVal)
	}
	m.resolves[key] = v
	return v.edges, v.ids, true
}

// reserve implements internResolver.
func (f *fieldOps) reserve(objects, copies int) {
	if len(f.objs) == 0 {
		f.objs = make(map[*ir.Object]objEntry, objects)
	}
	if !f.memo.off && f.memo.resolves == nil {
		f.memo.resolves = make(map[resolveKey]resolveVal, copies)
	}
}

func (f *fieldOps) recordResolve(dst, src Cell, τ *types.Type, mismatch bool) {
	if τ != nil {
		f.rec.recordResolve(structsInvolved(τ, dst, src), mismatch)
	}
}

// internEdges interns the edges' endpoints, src then dst per edge, into a
// slice carved from the arena.
func (m *memoTable) internEdges(edges []Edge, intern func(Cell) CellID) []CellID {
	n := 2 * len(edges)
	if len(m.idArena) < n {
		m.idArena = make([]CellID, max(n, 1024))
	}
	ids := m.idArena[:n:n]
	m.idArena = m.idArena[n:]
	for i, e := range edges {
		ids[2*i] = intern(e.Src)
		ids[2*i+1] = intern(e.Dst)
	}
	return ids
}
