package core

import (
	"slices"

	"repro/internal/ir"
)

// This file is the offline constraint-reduction prepass: HVN-style
// hash-value numbering over the static constraint graph, run once between
// statement seeding and the fixpoint. Cells proven to converge to equal
// final points-to sets are folded through the same union-find /
// delivery protocol as online cycle elimination (mergeCells), so the
// fixpoint propagates into each equivalence class once instead of once per
// member — and the interner then keeps what remains deduplicated.
//
// Soundness rests on a closed-world property of the solver's fact sources.
// A cell can gain facts from exactly three places: a logged direct
// (address-of) fact, a static exact copy edge present in exactOut after
// seeding, or a rule firing at runtime. Every rule-created fact or edge
// lands on a cell of a statically identifiable object set — the "indirect"
// objects below — because the strategies' Lookup/Resolve never emit a cell
// outside the object they are handed:
//
//   - OpAddrField / OpLoad / OpPtrArith destinations (rules 2/4 and the
//     arithmetic smear write them at firing time);
//   - OpCall destinations, parameters and varargs (call binding resolves
//     edges into them per discovered callee);
//   - address-taken objects (OpAddrOf sources): OpStore and OpMemCopy
//     resolve edges into cells of pointed-to objects, and every points-to
//     target's object is address-taken by construction.
//
// Cells of unmarked objects therefore have a complete static description:
// their final set is determined by their logged directs and their exact
// in-edges. Hash-value numbering exploits it bottom-up, on the condensation
// of the unmarked subgraph (components of mutually-copying cells provably
// converge to one set, merged or not):
//
//   vn(C) = 0                       no directs, no external in-edges: the
//                                   final set is provably empty;
//   vn(C) = vn(S)                   no directs and every external in-edge
//                                   comes from value number vn(S): the
//                                   final set IS S's final set — this is
//                                   the copy-chain/cast-temp rule, and it
//                                   holds even when S is an indirect cell
//                                   with an opaque (unique) number;
//   vn(C) = hash-cons(directs, in)  otherwise: equal signatures, equal
//                                   final sets.
//
// Edges from provably-empty sources are dropped from signatures (they
// contribute nothing), which lets a chain behind an empty head collapse
// with the head. Indirect cells get a fresh opaque number on first use as a
// source, so chains hanging off one load/param collapse INTO that cell.
//
// Merging whole classes preserves the Figure-3 counters for the same
// reason mergeSCC does (see congraph.go): members converge to the same
// final set, mergeCells delivers each member's outstanding facts through
// its own pre-merge consumers exactly once, and afterwards every fact
// reaching the representative fires the concatenated consumer list once —
// exactly the (consumer, fact) pairs the unmerged schedule produces.
//
// Multi-member components among unmarked cells are merged here, so the
// online SCC pass later finds only cycles created mid-fixpoint or running
// through indirect cells.

// prepState collects the seeding-time inputs of the prepass: the direct
// (address-of) facts, which by the end of seeding are indistinguishable in
// pts from facts that arrived through copy-edge replay.
type prepState struct {
	direct [][2]CellID // (dst, target) per OpAddrOf statement
}

// vnSig is one registered signature bucket entry: the value number it
// defines plus the exact signature content for collision checking.
type vnSig struct {
	vn   uint32
	dirs []CellID
	srcs []uint32
}

const vnNone = ^uint32(0)

// runPrepass detects pointer-equivalent cells over the static constraint
// graph and merges each equivalence class. It runs once, after seeding and
// before the fixpoint; prep state is released on return.
func (s *solver) runPrepass() {
	defer func() { s.prep = nil }()
	n := len(s.pts)
	if n == 0 {
		return
	}

	// Indirect objects: every object whose cells can receive a fact or an
	// in-edge from a rule firing (see the file comment for the case split).
	indirectObj := make(map[*ir.Object]bool)
	for _, st := range s.prog.Stmts {
		switch st.Op {
		case ir.OpAddrOf:
			indirectObj[st.Src] = true
		case ir.OpAddrField, ir.OpLoad, ir.OpPtrArith:
			indirectObj[st.Dst] = true
		case ir.OpCall:
			if st.Dst != nil {
				indirectObj[st.Dst] = true
			}
		}
	}
	for _, fn := range s.prog.Funcs {
		for _, p := range fn.Params {
			if p != nil {
				indirectObj[p] = true
			}
		}
		if fn.Varargs != nil {
			indirectObj[fn.Varargs] = true
		}
	}
	indirect := make([]bool, n)
	for i := 0; i < n; i++ {
		if indirectObj[s.table.Cell(CellID(i)).Obj] {
			indirect[i] = true
		}
	}

	// Reverse adjacency in CSR form: signature building walks in-edges.
	// exactOut is already deduplicated (edgeSet), and no merge has happened
	// yet, so ids are raw.
	radjOff := make([]int32, n+1)
	for src := 0; src < n; src++ {
		for _, dst := range s.exactOut[src] {
			radjOff[dst+1]++
		}
	}
	for i := 0; i < n; i++ {
		radjOff[i+1] += radjOff[i]
	}
	radj := make([]CellID, radjOff[n])
	fill := make([]int32, n)
	for src := 0; src < n; src++ {
		for _, dst := range s.exactOut[src] {
			radj[radjOff[dst]+fill[dst]] = CellID(src)
			fill[dst]++
		}
	}

	// Direct facts in CSR form, per destination cell.
	dirOff := make([]int32, n+1)
	for _, d := range s.prep.direct {
		dirOff[d[0]+1]++
	}
	for i := 0; i < n; i++ {
		dirOff[i+1] += dirOff[i]
	}
	dirs := make([]CellID, dirOff[n])
	for i := range fill {
		fill[i] = 0
	}
	for _, d := range s.prep.direct {
		dirs[dirOff[d[0]]+fill[d[0]]] = d[1]
		fill[d[0]]++
	}

	// Condense the unmarked subgraph: iterative Tarjan over cells not
	// marked indirect, following exact out-edges between unmarked
	// endpoints. Components complete in reverse topological order of the
	// condensation (a component pops only after everything it reaches),
	// so for a cross-component edge src→dst, comp(dst) < comp(src); the
	// numbering pass below walks components in descending id so every
	// in-edge's source component is numbered first.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	on := make([]bool, n)
	var stack []CellID
	var frames []sccFrame
	order := make([]CellID, 0, n) // members, grouped by component
	compStart := []int32{0}       // order offsets, one per component
	var next int32
	for root := 0; root < n; root++ {
		if indirect[root] || index[root] != 0 {
			continue
		}
		next++
		index[root], low[root] = next, next
		stack = append(stack, CellID(root))
		on[root] = true
		frames = append(frames[:0], sccFrame{v: CellID(root)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(s.exactOut[f.v]) {
				w := s.exactOut[f.v][f.ei]
				f.ei++
				switch {
				case indirect[w]:
					// Edge leaves the subgraph: no constraint on order.
				case index[w] == 0:
					next++
					index[w], low[w] = next, next
					stack = append(stack, w)
					on[w] = true
					frames = append(frames, sccFrame{v: w})
				case on[w] && index[w] < low[f.v]:
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			id := int32(len(compStart) - 1)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				on[w] = false
				comp[w] = id
				order = append(order, w)
				if w == v {
					break
				}
			}
			compStart = append(compStart, int32(len(order)))
		}
	}
	ncomp := len(compStart) - 1

	// Number the components. vn 0 is "provably empty"; unique numbers for
	// indirect sources are handed out lazily on first use, which also
	// registers the source cell as the founding member of its class — a
	// chain that inherits that number then collapses into the source.
	vn := make([]uint32, n)
	for i := range vn {
		vn[i] = vnNone
	}
	classes := [][]CellID{nil} // per vn; vn 0 collects provably-empty cells
	nextVN := uint32(1)
	vnOf := func(c CellID) uint32 {
		if vn[c] == vnNone {
			vn[c] = nextVN
			classes = append(classes, []CellID{c})
			nextVN++
		}
		return vn[c]
	}
	sigTab := make(map[uint64][]vnSig)
	var srcVNs []uint32
	var dirBuf []CellID
	for k := ncomp - 1; k >= 0; k-- {
		members := order[compStart[k]:compStart[k+1]]
		srcVNs = srcVNs[:0]
		dirBuf = dirBuf[:0]
		for _, m := range members {
			for _, src := range radj[radjOff[m]:radjOff[m+1]] {
				if !indirect[src] && comp[src] == int32(k) {
					continue // intra-component edge
				}
				if v := vnOf(src); v != 0 {
					// Provably-empty sources contribute nothing to the
					// final set; dropping them merges a chain behind an
					// empty head with the head's own class.
					srcVNs = append(srcVNs, v)
				}
			}
			dirBuf = append(dirBuf, dirs[dirOff[m]:dirOff[m+1]]...)
		}
		slices.Sort(srcVNs)
		srcVNs = slices.Compact(srcVNs)
		slices.Sort(dirBuf)
		dirBuf = slices.Compact(dirBuf)

		var v uint32
		switch {
		case len(dirBuf) == 0 && len(srcVNs) == 0:
			v = 0
		case len(dirBuf) == 0 && len(srcVNs) == 1:
			// Single-source inheritance: the component's final set is
			// exactly the source class's final set.
			v = srcVNs[0]
			s.stats.PrepChains += len(members)
		default:
			h := uint64(14695981039346656037)
			for _, d := range dirBuf {
				h = (h ^ uint64(d)) * 1099511628211
			}
			h = (h ^ 0xffffffffffffffff) * 1099511628211 // directs/sources separator
			for _, sv := range srcVNs {
				h = (h ^ uint64(sv)) * 1099511628211
			}
			v = vnNone
			for _, e := range sigTab[h] {
				if slices.Equal(e.dirs, dirBuf) && slices.Equal(e.srcs, srcVNs) {
					v = e.vn
					break
				}
			}
			if v == vnNone {
				v = nextVN
				nextVN++
				classes = append(classes, nil)
				sigTab[h] = append(sigTab[h], vnSig{
					vn:   v,
					dirs: append([]CellID(nil), dirBuf...),
					srcs: append([]uint32(nil), srcVNs...),
				})
			}
		}
		for _, m := range members {
			vn[m] = v
		}
		classes[v] = append(classes[v], members...)
	}

	// Merge every multi-member class through the shared protocol. The
	// union-find forest is grown here exactly as detectCycles grows it, so
	// a later online pass sees a consistent parent/rank table.
	s.parent = slices.Grow(s.parent, n-len(s.parent))
	s.rank = slices.Grow(s.rank, n-len(s.rank))
	for i := len(s.parent); i < n; i++ {
		s.parent = append(s.parent, CellID(i))
		s.rank = append(s.rank, -1)
	}
	for _, members := range classes {
		if len(members) < 2 {
			continue
		}
		if s.stop != nil {
			return
		}
		s.stats.PrepClasses++
		s.stats.PrepCollapsed += len(members) - 1
		s.mergeCells(members)
	}
}
