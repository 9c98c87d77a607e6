package core

import (
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// Recorder counts lookup/resolve activity, reproducing the instrumentation
// behind Figure 3 of the paper (columns 5–8). Calls to lookup made from
// inside resolve are not counted, matching the paper's footnote. Each field
// is a counter declared to the schema in counters.go by its tags.
type Recorder struct {
	LookupCalls      int `json:"lookup_calls" unit:"calls" class:"pure" help:"logical lookup calls (Figure 3)"`
	LookupStructs    int `json:"lookup_structs" unit:"calls" class:"pure" help:"lookup calls that involved structures"`
	LookupMismatches int `json:"lookup_mismatches" unit:"calls" class:"pure" help:"struct lookup calls whose types did not match"`

	ResolveCalls      int `json:"resolve_calls" unit:"calls" class:"pure" help:"logical resolve calls (Figure 3)"`
	ResolveStructs    int `json:"resolve_structs" unit:"calls" class:"pure" help:"resolve calls that involved structures"`
	ResolveMismatches int `json:"resolve_mismatches" unit:"calls" class:"pure" help:"struct resolve calls whose types did not match"`

	// Cache counters for the strategy-level memoization. The call counts
	// above are LOGICAL calls — hits increment them too — so Figure 3's
	// semantics are unchanged by caching; hits+misses always equals the
	// corresponding call count.
	LookupCacheHits    int `json:"lookup_cache_hits,omitempty" unit:"calls" class:"schedule" help:"lookup calls served from the memo"`
	LookupCacheMisses  int `json:"lookup_cache_misses,omitempty" unit:"calls" class:"schedule" help:"lookup calls computed and memoized"`
	ResolveCacheHits   int `json:"resolve_cache_hits,omitempty" unit:"calls" class:"schedule" help:"resolve calls served from the memo"`
	ResolveCacheMisses int `json:"resolve_cache_misses,omitempty" unit:"calls" class:"schedule" help:"resolve calls computed and memoized"`
}

func (r *Recorder) recordLookup(isStruct, mismatch bool) {
	if r == nil {
		return
	}
	r.LookupCalls++
	if isStruct {
		r.LookupStructs++
		if mismatch {
			r.LookupMismatches++
		}
	}
}

func (r *Recorder) recordResolve(isStruct, mismatch bool) {
	if r == nil {
		return
	}
	r.ResolveCalls++
	if isStruct {
		r.ResolveStructs++
		if mismatch {
			r.ResolveMismatches++
		}
	}
}

// Strategy is one instance of the framework: definitions of normalize,
// lookup and resolve (§4.2.2, §4.3), plus the cell-universe helpers the
// solver and the metrics need.
type Strategy interface {
	// Name identifies the instance ("offsets", "collapse-always", ...).
	Name() string

	// Normalize maps an object plus source-level field path to its
	// canonical cell (the paper's normalize).
	Normalize(obj *ir.Object, path ir.Path) Cell

	// Lookup returns the cells actually referenced when a pointer
	// declared to point to τ is dereferenced with field selector path,
	// while actually pointing at target (the paper's lookup).
	Lookup(τ *types.Type, path ir.Path, target Cell) []Cell

	// Resolve matches the cells copied when an object is block-copied:
	// dst and src are the normalized endpoints and τ is the declared
	// type of the assignment's left-hand side, which fixes the copy
	// size (the paper's resolve; τ == nil means a copy of unknown
	// extent, e.g. memcpy).
	Resolve(dst, src Cell, τ *types.Type) []Edge

	// CellsOf enumerates the normalized cells of an object (used for
	// the Assumption 1 pointer-arithmetic smearing and for metrics).
	CellsOf(obj *ir.Object) []Cell

	// ExpandedSize is the number of source-level fields the cell stands
	// for — 1 for a field-precise cell, the flattened field count for a
	// collapsed object (Figure 4's expansion of Collapse Always facts).
	ExpandedSize(c Cell) int

	// PropagateEdge applies a copy edge to a fact arriving at cell src:
	// it returns the destination cell when the edge carries that cell.
	PropagateEdge(e Edge, src Cell) (Cell, bool)

	// Recorder returns the instrumentation counters (may be nil).
	Recorder() *Recorder
}

// exactEdgePropagate is the shared PropagateEdge for the field strategies:
// an edge carries exactly its source cell.
func exactEdgePropagate(e Edge, src Cell) (Cell, bool) {
	if e.Src == src {
		return e.Dst, true
	}
	return Cell{}, false
}

// exactEdger is an optional Strategy refinement. A strategy whose
// PropagateEdge is exactEdgePropagate for every Size==0 edge it produces —
// i.e. an edge carries exactly its source cell, never a range of offsets —
// can declare so and the solver indexes those edges by interned source id,
// turning per-fact PropagateEdge filtering into a direct adjacency walk with
// whole-batch bitset merges. Strategies that do not implement it (or range
// edges like the Offsets instance's) go through the generic PropagateEdge
// path unchanged.
type exactEdger interface {
	exactEdges() bool
}

// ExactEdges reports whether the strategy declares exact-only copy edges
// (every edge it resolves carries exactly its source cell, Size == 0). The
// incremental-resume subsystem gates its replay-elision optimization on
// this: restored edges and suppressed replays are only provably equivalent
// to a cold schedule when edge propagation is a plain per-cell union.
func ExactEdges(s Strategy) bool {
	ee, ok := s.(exactEdger)
	return ok && ee.exactEdges()
}
