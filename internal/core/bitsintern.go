package core

import (
	"runtime"
	"slices"
)

// This file is the hash-consed points-to-set pool: a per-solve table that
// detects structurally-equal Bits values and makes the cells share one
// allocation, with copy-on-write when a sharing cell mutates.
//
// Inclusion-based fixpoints converge with massive set duplication — every
// cell downstream of a copy chain ends with the same targets — so at scale
// the dominant live allocation is N identical block slices. Interning runs
// as an epoch at each wave barrier (and once more when the solve finishes):
// cells touched during the wave are hashed over their exact block
// representation and re-pointed at the first allocation seen with equal
// content. Epochs happen only at deterministic points on the solver
// goroutine, so the parallel executor's observables are unaffected.
//
// The sharing discipline is a single invariant: a cell whose shared flag is
// set never mutates its Bits in place. The three mutation sites (addFact,
// mergeFrom, and the parallel executor's mergeShard) check sharedSet first
// and either prove the mutation a no-op (membership / subsumption — the
// common case around converged chains, and the reason interning saves time
// as well as space) or clone through cowSet. Shared allocations are likewise
// never recycled into the Bits free pool (mergeCells guards its one recycle
// site), since pool reuse would rewrite blocks other cells still read.
//
// Equality is over the exact representation (block list and population),
// not the abstract set: Remove can leave zero words behind, and treating
// those as equal to a compacted twin would make "hash equal, content equal"
// depend on history. Exact equality keeps the check two comparisons per
// block with no normalization pass.
//
// Table entries are registrations, not truths: a registered cell can mutate
// later (clearing its flag or not even having one), so a candidate's content
// is re-verified at alias time and stale entries are simply skipped. A
// mutated cell re-registers under its new hash at the next epoch that sees
// it dirty.
type bitsIntern struct {
	tab    map[uint64][]CellID // content hash → cells registered with it
	shared []bool              // per-cell: blocks alias an interned allocation
	buf    []CellID            // reusable epoch scratch (find-mapped, sorted)
}

func newBitsIntern() *bitsIntern {
	return &bitsIntern{tab: make(map[uint64][]CellID, 256)}
}

// bitsHash is FNV-1a over the exact block representation.
func bitsHash(b *Bits) uint64 {
	h := uint64(14695981039346656037)
	for i := range b.blocks {
		h = (h ^ uint64(b.blocks[i].idx)) * 1099511628211
		h = (h ^ b.blocks[i].word) * 1099511628211
	}
	return h
}

// bitsEqual reports exact representation equality.
func bitsEqual(a, b *Bits) bool {
	if a.n != b.n || len(a.blocks) != len(b.blocks) {
		return false
	}
	for i := range a.blocks {
		if a.blocks[i] != b.blocks[i] {
			return false
		}
	}
	return true
}

// sharedSet reports whether c's blocks alias an interned allocation and must
// not be mutated in place. Cells past the flag array's end were interned
// into the cell table after the last epoch, so they cannot be sharing.
// Safe from parallel workers: the flag is only set at barriers, and only
// cleared (via cowSet) by the worker that owns c.
func (s *solver) sharedSet(c CellID) bool {
	return s.intern != nil && int(c) < len(s.intern.shared) && s.intern.shared[c]
}

// cowSet gives c a private copy of its (currently shared) blocks. The clone
// is exact-length: a set being mutated right now usually grows through the
// normal append path immediately after.
func (s *solver) cowSet(c CellID) {
	b := &s.pts[c]
	nb := make([]bitsBlock, len(b.blocks))
	copy(nb, b.blocks)
	b.blocks = nb
	s.intern.shared[c] = false
}

// internEpoch is one interning pass over the cells dirtied by the wave that
// just completed. cells may contain duplicates and merged-away members; it
// is find-mapped, sorted and deduplicated here (the caller's buffer is dead
// until the next wave truncates it, so sorting in place is fine).
func (s *solver) internEpoch(cells []CellID) {
	it := s.intern
	s.stats.InternEpochs++
	if n := len(s.pts); len(it.shared) < n {
		grown := make([]bool, n)
		copy(grown, it.shared)
		it.shared = grown
	}
	buf := it.buf[:0]
	for _, c := range cells {
		buf = append(buf, s.find(c))
	}
	slices.Sort(buf)
	for i, c := range buf {
		if i > 0 && buf[i-1] == c {
			continue
		}
		s.internCell(c)
	}
	it.buf = buf[:0]
}

// internFinal is the terminal pass over the whole cell table: merged-away
// members drop their dead pre-merge storage (queries read the
// representative through Result.redirect), and every representative's set
// is interned so the retained Result holds one allocation per distinct
// value.
func (s *solver) internFinal() {
	it := s.intern
	s.stats.InternEpochs++
	if n := len(s.pts); len(it.shared) < n {
		grown := make([]bool, n)
		copy(grown, it.shared)
		it.shared = grown
	}
	if s.merged {
		for i := range s.pts {
			c := CellID(i)
			if s.find(c) != c {
				s.pts[i] = Bits{}
				it.shared[i] = false
			}
		}
	}
	for i := range s.pts {
		if s.merged && s.find(CellID(i)) != CellID(i) {
			continue
		}
		s.internCell(CellID(i))
	}
}

// internCell registers c's current content in the pool, or re-points c at an
// existing allocation with equal content, marking both ends shared.
func (s *solver) internCell(c CellID) {
	it := s.intern
	b := &s.pts[c]
	if b.n == 0 || it.shared[c] {
		// Shared cells are already canonical: their content cannot have
		// changed since the flag was set (mutation clears it via cowSet).
		return
	}
	h := bitsHash(b)
	for _, cd := range it.tab[h] {
		if cd == c {
			return // still registered with this exact content
		}
		o := &s.pts[cd]
		if len(o.blocks) > 0 && len(b.blocks) > 0 && &o.blocks[0] == &b.blocks[0] {
			// Already one allocation (e.g. both re-pointed before a flag
			// array regrowth): just restore the flags.
			it.shared[c], it.shared[cd] = true, true
			return
		}
		if !bitsEqual(b, o) {
			continue // stale registration or hash collision
		}
		s.stats.InternSets++
		s.stats.InternBytes += cap(b.blocks) * 16 // sizeof(bitsBlock)
		// Drop c's private allocation for the canonical one. Not recycled:
		// letting the GC take it is the point of the exercise — the free
		// pool would keep it live.
		b.blocks = o.blocks[:len(o.blocks):len(o.blocks)]
		it.shared[c], it.shared[cd] = true, true
		return
	}
	it.tab[h] = append(it.tab[h], c)
}

// peakSampleEvery is the classic worklist's drain cadence between peak-heap
// samples under Options.TrackPeakMem (wave mode samples at barriers
// instead). ReadMemStats is a stop-the-world operation, so the cadence errs
// coarse.
const peakSampleEvery = 4096

// samplePeak records the current live heap into WaveStats.PeakLiveBytes if
// it is the highest seen. No-op unless Options.TrackPeakMem is set.
func (s *solver) samplePeak() {
	if !s.opts.TrackPeakMem {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.stats.PeakLiveBytes = max(s.stats.PeakLiveBytes, int(ms.HeapAlloc))
}
