package core

import (
	"sync"
	"sync/atomic"
)

// This file is the parallel wave executor: a work-stealing fan-out of the
// wave scheduler's ranked walk (congraph.go) across shards of the condensed
// constraint graph.
//
// The design splits one wave into a parallel phase and a sequential barrier.
// During the parallel phase workers perform ONLY pure Bits edge propagation:
// each shard is a contiguous span of the topological order, and a shard's
// owner is the only goroutine that may write the points-to or delta set of
// any cell ranked inside it, so intra-shard cascades run lock-free exactly
// like the sequential walk. A delta crossing into a foreign shard is not
// applied — it is published into the publishing shard's per-destination
// pending buffer. Everything that touches shared solver state — strategy
// rule firing (memo tables, Figure-3 counters, addEdge/addFact), the
// factObjs index, the dirty list, the counters — is deferred to the
// barrier, which runs on the solver goroutine and replays the shards'
// outputs in ascending shard order. Two consequences:
//
//   - No two goroutines ever mutate the same points-to set, watcher list,
//     or map: the parallel phase reads shared structure (topo, rank,
//     exactOut, watchers, a frozen find() snapshot) and writes only cells
//     it owns plus its private shard state.
//   - The result is deterministic in (program, strategy, Parallelism):
//     a shard's output depends only on the pre-wave state (cross-shard
//     deltas are invisible until the barrier), and the barrier consumes
//     shard outputs in shard order, so which worker ran which shard — the
//     only thing scheduling decides — cannot be observed. The single
//     exception is the ParSteals counter, declared machine-class
//     (counters.go).
//
// Fact-set identity with the sequential executor then follows from the
// fixpoint's confluence: both schedules fire every (watcher, fact) pair
// exactly once (deltas dedup against pts before anything fires) and drain
// every pending delta before terminating, and the Figure-3 counters are a
// pure function of those exactly-once firings (see watch() in solver.go),
// so they too are byte-identical to a sequential solve.
//
// find() is frozen for the parallel phase as a flat representative array:
// merges happen only inside detectCycles, which runs sequentially at the
// top of a wave, so runWaves refreshes the snapshot right after each
// detection pass and workers index it without synchronization. Cells
// interned after the snapshot are their own representatives.
//
// Cancellation: workers poll the context every parCancelEvery drained
// cells and raise a shared atomic flag; everyone bails between cells. The
// barrier still folds in the partial counters, then drops the undelivered
// pendings and rule work — every fact already recorded is individually
// justified, so the Incomplete result is sound, merely missing further
// derivations, the same contract as the sequential path.

const (
	// parMinFrontier is the dirty-cell count below which a wave stays on
	// the sequential walk: sharding and goroutine fan-out cost more than a
	// small frontier is worth. The threshold reads only the deterministic
	// dirty count, so the parallel/sequential decision per wave is itself
	// deterministic.
	parMinFrontier = 64

	// parShardSpan is the target number of topo cells per shard. Shards
	// are oversubscribed relative to workers (up to parShardFactor per
	// worker) so stealing has granularity to balance skewed cascades.
	parShardSpan   = 64
	parShardFactor = 4

	// parCancelEvery is the worker-side analogue of cancelCheckEvery.
	parCancelEvery = 64

	// parMaxWorkers bounds the goroutine fan-out however large the
	// requested Parallelism is.
	parMaxWorkers = 64
)

// parPending accumulates one shard's outgoing deltas for one foreign cell.
type parPending struct {
	dst  CellID
	bits Bits
}

// parRule defers one drained cell's watcher firing to the barrier: the cell
// and the delta batch its watchers must see.
type parRule struct {
	cell  CellID
	batch Bits
}

// parShard is the unit of claimable work plus everything its processing
// produced. All fields are owned by the claiming worker until the barrier.
type parShard struct {
	lo, hi         int   // topo index span [lo, hi)
	loRank, hiRank int32 // rank span of the cells in [lo, hi): the ownership test

	steps         int
	edgeBatches   int
	factCrossings int
	nfacts        int
	gains         int // edge merges that added facts
	zeroGains     int // redundant merges: cycle-detection evidence

	newCells []CellID // cells whose pts went empty→non-empty (ncells/factObjs)
	dirty    []CellID // cells whose delta went empty→non-empty locally
	pend     []parPending
	pendIdx  map[CellID]int
	rules    []parRule
}

// parWorker is one goroutine's queue of shard ids plus its private
// allocation pools. Pools never migrate across goroutines mid-wave.
type parWorker struct {
	queue   []int32
	next    atomic.Int32
	scratch []CellID
	free    []Bits
}

func (w *parWorker) takeBits() Bits {
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free = w.free[:n-1]
		return b
	}
	return Bits{}
}

func (w *parWorker) recycleBits(b Bits) {
	b.Clear()
	w.free = append(w.free, b)
}

// parExec is the per-solver parallel executor state, reused across waves.
type parExec struct {
	workers int
	shards  []parShard
	ws      []parWorker

	// flat is the frozen find() snapshot: flat[c] is c's representative as
	// of the last detection pass. Empty until the first merge (identity).
	flat []CellID

	// dstOrder/dstGroup group the shards' pendings by destination at the
	// barrier, in first-publication order.
	dstOrder []CellID
	dstGroup map[CellID][]*Bits

	stopFlag atomic.Bool
	steals   atomic.Int64
}

func newParExec(workers int) *parExec {
	if workers > parMaxWorkers {
		workers = parMaxWorkers
	}
	return &parExec{
		workers:  workers,
		ws:       make([]parWorker, workers),
		dstGroup: make(map[CellID][]*Bits),
	}
}

// refreshFlat rebuilds the workers' find() snapshot; called right after
// every detection pass (the only producer of merges).
func (p *parExec) refreshFlat(s *solver) {
	if !s.merged {
		p.flat = p.flat[:0]
		return
	}
	n := len(s.parent)
	if cap(p.flat) < n {
		p.flat = make([]CellID, n)
	} else {
		p.flat = p.flat[:n]
	}
	for i := range p.flat {
		p.flat[i] = s.find(CellID(i))
	}
}

// findFlat is the workers' race-free find(): representatives as of the last
// detection pass, identity beyond the snapshot (younger cells are unmerged).
func (p *parExec) findFlat(c CellID) CellID {
	if int(c) < len(p.flat) {
		return p.flat[c]
	}
	return c
}

// runWave executes one wave of the ranked walk in parallel: partition,
// fan out, then the deterministic barrier. The caller (runWaves) has
// already run cycle detection and swapped the dirty list for this wave.
func (p *parExec) runWave(s *solver) {
	nsh := p.prepare(s)
	if nsh == 0 {
		return
	}
	w := p.workers
	if w > nsh {
		w = nsh
	}
	// Block assignment: worker i owns the contiguous shard range
	// [i*nsh/w, (i+1)*nsh/w), preserving the walk's locality; stealing
	// redistributes when cascades skew.
	for i := 0; i < w; i++ {
		q := &p.ws[i]
		q.queue = q.queue[:0]
		for sid := i * nsh / w; sid < (i+1)*nsh/w; sid++ {
			q.queue = append(q.queue, int32(sid))
		}
		q.next.Store(0)
	}
	p.stopFlag.Store(false)

	if w == 1 {
		// One worker: run inline, skipping goroutine fan-out (and keeping
		// the executor exercisable under deterministic single-flow tests).
		p.work(s, 0, 1)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p.work(s, i, w)
			}(i)
		}
		wg.Wait()
	}
	p.barrier(s, nsh)
}

// prepare partitions the current topo order into contiguous shards and
// resets their working state. Shard boundaries depend only on len(topo) and
// the configured worker count — never on GOMAXPROCS or timing.
func (p *parExec) prepare(s *solver) int {
	n := len(s.topo)
	if n == 0 {
		return 0
	}
	span := parShardSpan
	if maxSh := p.workers * parShardFactor; (n+span-1)/span > maxSh {
		span = (n + maxSh - 1) / maxSh
	}
	nsh := (n + span - 1) / span
	for len(p.shards) < nsh {
		p.shards = append(p.shards, parShard{pendIdx: make(map[CellID]int)})
	}
	for i := 0; i < nsh; i++ {
		sh := &p.shards[i]
		sh.lo = i * span
		sh.hi = sh.lo + span
		if sh.hi > n {
			sh.hi = n
		}
		// Ranks increase strictly along the compacted topo order (one
		// representative per component id), so contiguous index spans have
		// disjoint rank spans and the ownership test below is exact.
		sh.loRank = s.rank[s.topo[sh.lo]]
		sh.hiRank = s.rank[s.topo[sh.hi-1]]
		sh.steps, sh.edgeBatches, sh.factCrossings = 0, 0, 0
		sh.nfacts, sh.gains, sh.zeroGains = 0, 0, 0
		sh.newCells = sh.newCells[:0]
		sh.dirty = sh.dirty[:0]
		sh.pend = sh.pend[:0]
		sh.rules = sh.rules[:0]
	}
	return nsh
}

// owns reports whether cell rd (a representative) is ranked inside sh's
// span — i.e. whether the worker processing sh may write rd's sets.
func (sh *parShard) owns(s *solver, rd CellID) bool {
	if int(rd) >= len(s.rank) {
		return false
	}
	r := s.rank[rd]
	return r >= sh.loRank && r <= sh.hiRank
}

// work is one worker's wave: drain own shards, then steal.
func (p *parExec) work(s *solver, w, nw int) {
	ws := &p.ws[w]
	for {
		sid, stole := p.claim(w, nw)
		if sid < 0 {
			return
		}
		if stole {
			p.steals.Add(1)
		}
		p.runShard(s, &p.shards[sid], ws)
		if p.stopFlag.Load() {
			return
		}
	}
}

// claim pops the next shard id from the worker's own queue, falling back to
// stealing from peers scanned round-robin. Every queue slot is claimed by
// exactly one goroutine (the atomic cursor hands out unique indices), so a
// shard is processed exactly once however claims interleave.
func (p *parExec) claim(w, nw int) (sid int, stole bool) {
	own := &p.ws[w]
	if i := own.next.Add(1); int(i) <= len(own.queue) {
		return int(own.queue[i-1]), false
	}
	for d := 1; d < nw; d++ {
		v := &p.ws[(w+d)%nw]
		if int(v.next.Load()) >= len(v.queue) {
			continue // already dry; skip the wasted fetch-add
		}
		if i := v.next.Add(1); int(i) <= len(v.queue) {
			return int(v.queue[i-1]), true
		}
	}
	return -1, false
}

// runShard drains the shard's span in descending topo index — sources
// first, the same direction as the sequential walk — so a delta discovered
// upstream cascades through the whole shard within this wave.
func (p *parExec) runShard(s *solver, sh *parShard, ws *parWorker) {
	for i := sh.hi - 1; i >= sh.lo; i-- {
		c := s.topo[i]
		if s.delta[c].Len() == 0 {
			continue
		}
		if sh.steps%parCancelEvery == 0 {
			if p.stopFlag.Load() {
				return
			}
			if s.ctx != nil && s.ctx.Err() != nil {
				p.stopFlag.Store(true)
				return
			}
		}
		sh.steps++
		p.drainShard(s, sh, ws, c)
	}
}

// drainShard is the worker-side drain: identical to solver.drain except
// that foreign-shard merges become pendings, watcher firing is deferred,
// and all bookkeeping lands in shard-local state. Range edges cannot occur
// (wave mode implies an exact-edge strategy), and limits/trace are off by
// construction (newSolver gates the executor on both).
func (p *parExec) drainShard(s *solver, sh *parShard, ws *parWorker, c CellID) {
	batch := s.delta[c]
	s.delta[c] = ws.takeBits()
	for _, dst := range s.exactOut[c] {
		rd := p.findFlat(dst)
		if rd == c {
			continue // self-loop left by a merge: delta ⊆ pts already
		}
		sh.edgeBatches++
		sh.factCrossings += batch.Len()
		if sh.owns(s, rd) {
			if p.mergeShard(s, sh, ws, rd, &batch) == 0 {
				sh.zeroGains++
			} else {
				sh.gains++
			}
		} else {
			pi, ok := sh.pendIdx[rd]
			if !ok {
				pi = len(sh.pend)
				sh.pend = append(sh.pend, parPending{dst: rd, bits: ws.takeBits()})
				sh.pendIdx[rd] = pi
			}
			sh.pend[pi].bits.UnionInPlace(&batch)
		}
	}
	if len(s.watchers[c]) > 0 {
		sh.rules = append(sh.rules, parRule{cell: c, batch: batch})
	} else {
		ws.recycleBits(batch)
	}
}

// mergeShard is the worker-side mergeFrom for a cell the shard owns: the
// same UnionDiff/delta/dirty protocol, with counters and the newly-non-empty
// record deferred to shard state (ncells and factObjs are shared).
func (p *parExec) mergeShard(s *solver, sh *parShard, ws *parWorker, dst CellID, src *Bits) int {
	set := &s.pts[dst]
	if src.Len() == 0 || src == set {
		return 0
	}
	isNew := set.Len() == 0
	// Copy-on-write for interned sets, as in mergeFrom. Race-free: only the
	// worker owning dst's shard reaches here, the flag array is grown only
	// at barriers, and distinct elements of it are distinct memory
	// locations.
	if s.sharedSet(dst) {
		if src.n <= set.n && set.subsumes(src) {
			return 0 // no-gain merge: keep sharing the interned allocation
		}
		s.cowSet(dst)
	}
	buf := set.UnionDiff(src, ws.scratch[:0])
	added := len(buf)
	if added > 0 {
		if isNew {
			sh.newCells = append(sh.newCells, dst)
		}
		sh.nfacts += added
		d := &s.delta[dst]
		if d.Len() == 0 {
			sh.dirty = append(sh.dirty, dst)
		}
		for _, tgt := range buf {
			d.Add(tgt)
		}
	}
	ws.scratch = buf[:0]
	return added
}

// barrier folds the shards' outputs back into the solver, in ascending
// shard order so the merged state is independent of which worker ran what:
// counters and dirty lists first, then cross-shard pending deliveries
// (grouped per destination and combined with one UnionAll pass), then the
// deferred watcher firings. Runs on the solver goroutine; the WaitGroup in
// runWave orders every shard write before it.
func (p *parExec) barrier(s *solver, nsh int) {
	s.stats.ParWaves++
	anyGain := false
	zero := 0
	for i := 0; i < nsh; i++ {
		sh := &p.shards[i]
		s.steps += sh.steps
		if sh.steps > 0 {
			s.stats.ParShards++
		}
		s.stats.EdgeBatches += sh.edgeBatches
		s.stats.FactCrossings += sh.factCrossings
		s.nfacts += sh.nfacts
		for _, c := range sh.newCells {
			s.ncells++
			s.recordFactObj(c)
		}
		s.dirty = append(s.dirty, sh.dirty...)
		if sh.gains > 0 {
			anyGain = true
		}
		zero += sh.zeroGains
	}
	// Wave-level redundancy evidence: any productive merge clears the
	// counter (as a productive merge does sequentially); an all-redundant
	// wave accumulates toward the re-detection trigger.
	if anyGain {
		s.redundant = 0
	} else {
		s.redundant += zero
	}
	s.stats.ParSteals += int(p.steals.Swap(0))

	if p.stopFlag.Load() {
		// Canceled mid-wave: record the stop with the counters already
		// folded in, then drop undelivered pendings and rule work — the
		// recorded facts are sound without them.
		s.checkCtx()
		p.discard(s, nsh)
		return
	}

	// Cross-shard deliveries. Group the pendings by destination in
	// first-publication (shard, then intra-shard) order; a destination fed
	// by several shards gets its buffers combined in a single UnionAll
	// block-merge pass, then one mergeFrom installs the batch and queues
	// the delta.
	order := p.dstOrder[:0]
	for i := 0; i < nsh; i++ {
		sh := &p.shards[i]
		for j := range sh.pend {
			pe := &sh.pend[j]
			lst, ok := p.dstGroup[pe.dst]
			if !ok {
				order = append(order, pe.dst)
			}
			p.dstGroup[pe.dst] = append(lst, &pe.bits)
			s.stats.ParPendings++
		}
	}
	for _, dst := range order {
		srcs := p.dstGroup[dst]
		delete(p.dstGroup, dst)
		if s.stop == nil {
			if len(srcs) == 1 {
				s.mergeFrom(dst, srcs[0])
			} else {
				comb := s.takeBits()
				comb.UnionAll(srcs)
				s.mergeFrom(dst, &comb)
				s.recycleBits(comb)
			}
		}
	}
	p.dstOrder = order[:0]

	// Deferred rule firings: per shard, per drained cell (in the shard's
	// deterministic processing order), the batch replays to the cell's
	// watchers exactly as solver.drain would have.
	fired := 0
	for i := 0; i < nsh; i++ {
		sh := &p.shards[i]
		for j := range sh.rules {
			r := &sh.rules[j]
			if s.stop == nil {
				if fired%parCancelEvery == 0 {
					s.checkCtx()
				}
				fired++
				buf := r.batch.AppendTo(s.getScratch())
				for _, w := range s.watchers[r.cell] {
					for _, tgt := range buf {
						s.applyRule(w, s.table.Cell(tgt), tgt)
					}
				}
				s.putScratch(buf)
			}
			s.recycleBits(r.batch)
			r.batch = Bits{}
		}
		sh.rules = sh.rules[:0]
	}
	p.reclaim(s, nsh)
}

// discard drops undelivered pendings and rule batches after a mid-wave stop.
func (p *parExec) discard(s *solver, nsh int) {
	for i := 0; i < nsh; i++ {
		sh := &p.shards[i]
		for j := range sh.rules {
			s.recycleBits(sh.rules[j].batch)
			sh.rules[j].batch = Bits{}
		}
		sh.rules = sh.rules[:0]
	}
	p.reclaim(s, nsh)
}

// reclaim recycles the shards' pending buffers into the solver's shared
// pool (the barrier is sequential, so the pool is safe here) and clears the
// per-wave indexes.
func (p *parExec) reclaim(s *solver, nsh int) {
	for i := 0; i < nsh; i++ {
		sh := &p.shards[i]
		for j := range sh.pend {
			s.recycleBits(sh.pend[j].bits)
			sh.pend[j] = parPending{}
		}
		sh.pend = sh.pend[:0]
		clear(sh.pendIdx)
	}
}
