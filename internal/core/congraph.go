package core

import "slices"

// This file is the constraint-graph layer of the dense solver: a union-find
// over CellIDs that collapses cells proven pointer-equivalent, online SCC
// detection over the exact (Size == 0) copy edges, and the wave scheduler
// that drains the worklist in topological order of the condensed graph.
//
// Cells on a cycle of exact copy edges provably converge to the same
// points-to set — each member's set flows into every other member — so the
// solver can fold the whole cycle into one representative and propagate into
// (and out of) it once instead of once per member. The scheduler then visits
// dirty representatives in reverse topological order of the condensed graph,
// so within one wave a delta crosses each edge once, instead of once per
// fact the classic per-fact worklist would pay.
//
// Byte-identical observables are non-negotiable (the corpus-wide
// differential test against AnalyzeReference): merging therefore never
// rewrites facts (points-to targets keep their original CellIDs), the
// Result maps every member cell back onto its representative's set through
// a find() snapshot (Result.redirect), and mergeSCC equalizes the members'
// rule consumers at merge time so that every watcher still fires exactly
// once per (cell, fact) — the same count the unmerged schedule produces.
//
// Range edges (the Offsets instance's Size != 0 byte ranges) are excluded by
// construction: only strategies that declare exactEdges() populate the
// exactOut adjacency this layer walks, and the Offsets instance does not —
// its edges keep the generic PropagateEdge path untouched.

// WaveStats counts the solver's work during one solve: the constraint-graph
// layer (online cycle elimination, wave scheduling), the parallel shard
// executor, the offline prepass and the set interner. Each field is a
// counter declared to the schema in counters.go by its tags; the class tag
// says which runs must agree on it.
type WaveStats struct {
	// Online cycle elimination: multi-cell SCCs collapsed, and the cells
	// folded into another representative (SCC size minus one, summed).
	SCCsFound   int `json:"sccs_found,omitempty" unit:"sccs" class:"pure" help:"copy-edge cycles collapsed online"`
	CellsMerged int `json:"cells_merged,omitempty" unit:"cells" class:"pure" help:"cells folded into an SCC representative"`

	// Wave scheduling: topological passes, batched copy-edge traversals
	// (one per edge and delta batch), the (edge, fact) pairs those batches
	// carried — what a per-fact worklist would have traversed — and the
	// difference, set once when the solve finishes.
	Waves           int `json:"waves,omitempty" unit:"waves" class:"schedule" help:"topological passes of the wave scheduler"`
	EdgeBatches     int `json:"edge_batches,omitempty" unit:"traversals" class:"schedule" help:"batched copy-edge traversals"`
	FactCrossings   int `json:"fact_crossings,omitempty" unit:"facts" class:"schedule" help:"(edge, fact) pairs the batches carried"`
	TraversalsSaved int `json:"traversals_saved,omitempty" unit:"traversals" class:"schedule" help:"fact_crossings minus edge_batches, floored at zero"`

	// Parallel shard executor (zero for a sequential solve). Steals depend
	// on runtime scheduling and GOMAXPROCS, so they are never compared
	// across runs.
	ParWaves    int `json:"par_waves,omitempty" unit:"waves" class:"schedule" help:"waves the parallel shard executor ran"`
	ParShards   int `json:"par_shards,omitempty" unit:"shards" class:"schedule" help:"shard drains in those waves"`
	ParSteals   int `json:"par_steals,omitempty" unit:"shards" class:"machine" help:"shards claimed from another worker's queue"`
	ParPendings int `json:"par_pendings,omitempty" unit:"buffers" class:"schedule" help:"cross-shard delta buffers merged at barriers"`

	// Offline prepass (prepass.go): pointer-equivalence classes merged
	// before the fixpoint, cells folded into another representative by
	// those merges, and the cells whose membership came from the
	// single-predecessor rule (copy chains and cast temps) rather than a
	// shared signature. It runs before any schedule-dependent work.
	PrepClasses   int `json:"prep_classes,omitempty" unit:"classes" class:"pure" help:"equivalence classes the prepass merged"`
	PrepCollapsed int `json:"prep_collapsed,omitempty" unit:"cells" class:"pure" help:"cells folded by prepass merges"`
	PrepChains    int `json:"prep_chains,omitempty" unit:"cells" class:"pure" help:"prepass memberships from the single-predecessor rule"`

	// Set interner: passes run (one per wave barrier plus the final pass),
	// sets re-pointed at a canonical equal allocation, and the approximate
	// block storage those events released (a set re-cloned by
	// copy-on-write and interned again counts again). Epochs fall at wave
	// barriers, so the family follows the schedule.
	InternEpochs int `json:"intern_epochs,omitempty" unit:"passes" class:"schedule" help:"interning passes"`
	InternSets   int `json:"intern_sets,omitempty" unit:"sets" class:"schedule" help:"sets re-pointed at a shared allocation"`
	InternBytes  int `json:"intern_bytes,omitempty" unit:"bytes" class:"schedule" help:"approximate bytes released by sharing"`

	// PeakLiveBytes is the highest runtime.ReadMemStats HeapAlloc observed
	// at the solve's sample points (Options.TrackPeakMem only).
	PeakLiveBytes int `json:"peak_live_bytes,omitempty" unit:"bytes" class:"machine" merge:"max" help:"peak sampled live heap (-peak-mem only)"`
}

// cycleRedundancyTrigger re-arms SCC detection: when this many exact-edge
// batch propagations in a row added nothing new (UnionDiff kept finding the
// same deltas going around a cycle), the next wave re-runs Tarjan over the
// condensed graph before draining.
const cycleRedundancyTrigger = 64

// find returns the representative of c under the union-find, with path
// halving. Until the first merge actually happens — always, outside wave
// mode — the mapping is the identity and costs one branch, so the seeding
// phase (which dominates small solves) pays nothing for the indirection.
// The forest only covers cells that existed at the last detection pass
// (detectCycles grows it in one batch); anything younger is its own root.
func (s *solver) find(c CellID) CellID {
	if !s.merged || int(c) >= len(s.parent) {
		return c
	}
	for s.parent[c] != c {
		s.parent[c] = s.parent[s.parent[c]]
		c = s.parent[c]
	}
	return c
}

// runWaves is the fixpoint loop of the wave scheduler. Each wave walks the
// ranked subgraph — the Tarjan pop order, reversed, so sources come first —
// draining every cell with a pending delta. Because downstream cells sit
// later in the walk, a delta discovered at a source cascades through the
// whole condensed graph within a single wave, accumulating fan-in along the
// way; only facts flowing against the topological order (derived by rules,
// or crossing edges added mid-wave) wait for the next wave. Cells outside
// the ranked subgraph (interned after the last detection, or never touched
// by an exact edge) drain after the walk, in id order. SCC detection runs
// before the first wave (the seeded graph already contains most cycles) and
// again when redundant propagation evidence accumulates.
func (s *solver) runWaves() {
	for len(s.dirty) > 0 {
		if s.stop != nil {
			return
		}
		s.stats.Waves++
		if s.stats.Waves == 1 || s.redundant >= cycleRedundancyTrigger {
			// Re-detection is pointless unless an edge was added since the
			// last pass: on a static graph every cycle is already collapsed,
			// so redundant propagation alone cannot mean a missed SCC.
			if s.stats.Waves == 1 || s.edgesSinceSCC > 0 {
				s.edgesSinceSCC = 0
				s.detectCycles()
				if s.par != nil {
					// Merges only happen inside detectCycles, so this is
					// the one place the workers' flat find() snapshot can
					// go stale.
					s.par.refreshFlat(s)
				}
			}
			s.redundant = 0
			if s.stop != nil {
				return
			}
		}
		// Snapshot the dirty list (swapping buffers, not copying): the walk
		// covers every ranked cell regardless, so the snapshot is only
		// needed to find the unranked residual afterwards. Cells dirtied
		// during this wave land on the fresh list and join the next one.
		snap := s.dirty
		s.dirty, s.dirtyPrev = s.dirtyPrev[:0], snap
		if s.par != nil && len(snap) >= parMinFrontier {
			// Parallel ranked walk: shards of the topo order drained by
			// worker goroutines, cross-shard deltas and rule firings
			// deferred to a deterministic barrier. The dispatch decision
			// depends only on the dirty count, never on timing, so the
			// wave sequence is identical run to run.
			s.par.runWave(s)
			if s.stop != nil {
				return
			}
		} else {
			for i := len(s.topo) - 1; i >= 0; i-- {
				c := s.topo[i]
				if s.delta[c].Len() == 0 {
					continue
				}
				if s.stop != nil {
					return
				}
				if s.steps%cancelCheckEvery == 0 {
					if s.checkCtx(); s.stop != nil {
						return
					}
				}
				s.steps++
				s.drain(c)
			}
		}
		// Residual: dirty cells outside the ranked subgraph, deduplicated
		// and drained in ascending id order for determinism.
		wave := s.waveBuf[:0]
		for _, c := range snap {
			r := s.find(c)
			if int(r) < len(s.rank) && s.rank[r] >= 0 {
				continue // ranked: the walk above covered it
			}
			if s.delta[r].Len() > 0 {
				wave = append(wave, uint64(r))
			}
		}
		slices.Sort(wave)
		prev := ^uint64(0)
		for _, key := range wave {
			if key == prev {
				continue // duplicate: several members dirtied one rep
			}
			prev = key
			if s.stop != nil {
				break
			}
			if s.steps%cancelCheckEvery == 0 {
				if s.checkCtx(); s.stop != nil {
					break
				}
			}
			s.steps++
			s.drain(CellID(key))
		}
		s.waveBuf = wave[:0]
		// Interning epoch: after the wave's mutations settle, alias any set
		// touched this wave that equals an already-seen allocation. snap
		// aliases dirtyPrev, which the next wave truncates, so sorting it in
		// place inside internEpoch is safe.
		if s.intern != nil {
			s.internEpoch(snap)
		}
		s.samplePeak()
	}
}

// detectCycles runs an iterative Tarjan SCC pass over the representatives'
// exact-edge adjacency, collapses every multi-member component, and records
// the component completion order as the topological rank the wave scheduler
// sorts by. Afterwards every representative's adjacency is compacted:
// targets are mapped through find(), self-loops dropped, duplicates removed.
func (s *solver) detectCycles() {
	n := len(s.pts)
	// The working arrays are reused across detection passes: they grow to n
	// once, and each pass resets only the entries it stamped (sccSeen), so a
	// re-detection on a large cell table costs O(visited subgraph), not O(n).
	// Roots come from exactSrcs — only cells with exact out-edges can be on a
	// cycle, and everything else reachable is visited through their edges;
	// cells outside the subgraph keep rank -1 and drain last, which is the
	// right topological position for pure sinks.
	if cap(s.sccIndex) < n {
		// All live entries are zero between passes (each pass resets what it
		// stamped), so growth is a plain allocation, no copy.
		s.sccIndex = make([]int32, n, n+n/2)[:n]
		s.sccLow = make([]int32, n, n+n/2)[:n]
		s.sccOn = make([]bool, n, n+n/2)[:n]
	} else {
		s.sccIndex = s.sccIndex[:n]
		s.sccLow = s.sccLow[:n]
		s.sccOn = s.sccOn[:n]
	}
	index, low, onstack := s.sccIndex, s.sccLow, s.sccOn
	stack, frames, seen := s.sccStack[:0], s.sccFrames[:0], s.sccSeen[:0]
	var next, sccID int32
	var sccs [][]CellID

	// Grow the union-find forest and rank table in one batch — cheaper than
	// maintaining them on every interning, and find()/the scheduler treat
	// ids past the end as unmerged and unranked.
	for i := len(s.parent); i < n; i++ {
		s.parent = append(s.parent, CellID(i))
		s.rank = append(s.rank, -1)
	}

	// Reset the previous pass's ranks so that rank >= 0 means exactly "in
	// the topo order this pass is about to build" — the wave scheduler's
	// residual pass relies on that to pick up every unranked dirty cell.
	for _, v := range s.topo {
		s.rank[v] = -1
	}
	s.topo = s.topo[:0]

	for _, src := range s.exactSrcs {
		root := s.find(src)
		if index[root] != 0 {
			continue
		}
		next++
		index[root], low[root] = next, next
		seen = append(seen, root)
		stack = append(stack, root)
		onstack[root] = true
		frames = append(frames[:0], sccFrame{v: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(s.exactOut[f.v]) {
				w := s.find(s.exactOut[f.v][f.ei])
				f.ei++
				switch {
				case w == f.v:
					// self-loop after an earlier merge
				case index[w] == 0:
					next++
					index[w], low[w] = next, next
					seen = append(seen, w)
					stack = append(stack, w)
					onstack[w] = true
					frames = append(frames, sccFrame{v: w})
				case onstack[w] && index[w] < low[f.v]:
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
			// v roots a component: pop it into the topo order, stamping the
			// rank — sinks first; the walk reverses. Only a multi-member
			// component (an actual cycle) copies its members out, so the
			// common singleton case allocates nothing.
			base := len(s.topo)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onstack[w] = false
				s.rank[w] = sccID
				s.topo = append(s.topo, w)
				if w == v {
					break
				}
			}
			sccID++
			if len(s.topo)-base > 1 {
				sccs = append(sccs, append([]CellID(nil), s.topo[base:]...))
			}
		}
	}
	// Leave the arrays all-zero for the next pass, touching only what this
	// one stamped; save the (possibly regrown) stacks back for reuse.
	for _, v := range seen {
		index[v] = 0
	}
	s.sccSeen = seen[:0]
	s.sccStack, s.sccFrames = stack[:0], frames[:0]

	for _, members := range sccs {
		s.mergeSCC(members)
		if s.stop != nil {
			return
		}
	}
	if len(sccs) == 0 {
		return
	}
	// Keep only representatives in the walk order: merged members' deltas
	// were folded into their representative, which sits at the component's
	// position (members of one SCC pop consecutively).
	kept := s.topo[:0]
	for _, v := range s.topo {
		if s.find(v) == v {
			kept = append(kept, v)
		}
	}
	s.topo = kept
	// Compact adjacency once per detection pass, so cascading merges do
	// not accumulate duplicate or self-loop edges in the hot drain loop.
	// The sweep doubles as the rebuild of exactSrcs: representatives absorb
	// their members' entries (find-mapped), duplicates collapse (via the
	// onstack array, all-false after the walk, as a visited marker), and
	// cells whose every edge folded into their own component drop out.
	// Cells interned during merge deliveries can sit past the marker's
	// bounds; they are new, so they cannot be duplicates.
	marked := seen[:0]
	srcs := s.exactSrcs[:0]
	for _, c0 := range s.exactSrcs {
		c := s.find(c0)
		if int(c) < len(onstack) {
			if onstack[c] {
				continue
			}
			onstack[c] = true
			marked = append(marked, c)
		}
		out := s.exactOut[c]
		if len(out) == 0 {
			continue
		}
		for i, d := range out {
			out[i] = s.find(d)
		}
		slices.Sort(out)
		kept := out[:0]
		prev := c // sentinel: dropping c also drops self-loops
		for _, d := range out {
			if d != prev && d != c {
				kept = append(kept, d)
				prev = d
			}
		}
		s.exactOut[c] = kept
		if len(kept) > 0 {
			srcs = append(srcs, c)
		}
	}
	s.exactSrcs = srcs
	for _, c := range marked {
		onstack[c] = false
	}
	s.sccSeen = marked[:0]
}

// sccFrame is one explicit-stack frame of the iterative Tarjan walk.
type sccFrame struct {
	v  CellID
	ei int // next out-edge index to visit
}

// mergePending snapshots one member's merge-time obligations: the facts its
// consumers (watchers and out-edges) have not yet seen, plus the consumer
// lists themselves as they stood before the structural merge.
type mergePending struct {
	member   CellID
	need     []CellID
	watchers []watch
	edges    []CellID
}

// mergeSCC folds the members of one exact-copy-edge cycle into a single
// representative (the smallest CellID, for determinism).
//
// The protocol keeps rule firing counts byte-identical to the unmerged run.
// In that run every member converges to the same final set U, and each
// member's watchers fire exactly once per fact of U (the delta sets dedup).
// Here: U is computed up front; for each member the facts its consumers have
// NOT yet seen — facts absent from its set, plus its still-pending delta —
// are delivered synchronously, exactly once, to that member's own watchers
// and pushed through its own out-edges. Afterwards every consumer group has
// seen exactly U, the groups are concatenated onto the representative, and
// any later fact arriving at the representative fires the combined list once
// — precisely what the unmerged schedule would have done member by member.
func (s *solver) mergeSCC(members []CellID) {
	s.stats.SCCsFound++
	s.stats.CellsMerged += len(members) - 1
	s.mergeCells(members)
}

// mergeCells is the strategy-agnostic merge protocol shared by cycle
// elimination (mergeSCC) and the offline prepass (prepass.go): it folds the
// given cells into the smallest member and delivers each member's
// outstanding facts through its own pre-merge consumers exactly once, per
// the contract documented on mergeSCC. Callers account their own stats.
func (s *solver) mergeCells(members []CellID) {
	slices.Sort(members)
	rep := members[0]
	s.merged = true

	// Union of the members' current sets, and the ids it contains.
	union := s.takeBits()
	for _, m := range members {
		union.UnionInPlace(&s.pts[m])
	}
	uids := union.AppendTo(s.getScratch())

	// Snapshot per-member obligations before mutating any structure. The
	// facts a member's consumers have seen are exactly its set minus its
	// pending delta, so the outstanding facts are (U \ pts) ∪ delta.
	pendings := make([]mergePending, 0, len(members))
	for _, m := range members {
		p := mergePending{member: m, watchers: s.watchers[m], edges: s.exactOut[m]}
		for _, id := range uids {
			if !s.pts[m].Has(id) || s.delta[m].Has(id) {
				p.need = append(p.need, id)
			}
		}
		pendings = append(pendings, p)
	}

	// Structural merge: union-find pointers first, so every addFact and
	// mergeFrom issued by the deliveries below lands on the representative.
	for _, m := range members[1:] {
		s.parent[m] = rep
	}
	wasEmpty := s.pts[rep].Len() == 0
	old := s.pts[rep]
	s.pts[rep] = union
	if s.sharedSet(rep) {
		// old aliases an interned allocation other cells may still point
		// at: drop it instead of recycling (pool reuse would corrupt the
		// aliases), and clear the flag — rep now owns the fresh union.
		s.intern.shared[rep] = false
	} else {
		s.recycleBits(old)
	}
	if wasEmpty && union.Len() > 0 {
		s.ncells++
		s.recordFactObj(rep)
	}
	for _, m := range members {
		s.delta[m].Clear() // obligations move into the need snapshots
	}
	for _, m := range members[1:] {
		s.watchers[rep] = append(s.watchers[rep], s.watchers[m]...)
		s.watchers[m] = nil
		s.exactOut[rep] = append(s.exactOut[rep], s.exactOut[m]...)
		s.exactOut[m] = nil
	}

	// Deliveries: push each member's outstanding facts through its own
	// pre-merge consumers. Facts derived reentrantly by the fired rules
	// land in the representative's delta and are drained — once, to the
	// combined watcher list — by the normal wave schedule.
	needBits := s.takeBits()
	for _, p := range pendings {
		if len(p.need) == 0 {
			continue
		}
		needBits.Clear()
		for _, id := range p.need {
			needBits.Add(id)
		}
		for _, d := range p.edges {
			rd := s.find(d)
			if rd == rep {
				continue // intra-component edge: absorbed by the union
			}
			s.stats.EdgeBatches++
			s.stats.FactCrossings += needBits.Len()
			s.mergeFrom(rd, &needBits)
		}
		for _, w := range p.watchers {
			for _, id := range p.need {
				s.applyRule(w, s.table.Cell(id), id)
			}
		}
	}
	s.recycleBits(needBits)
	s.putScratch(uids)
}
