package core

import "math/bits"

// bitsBlock is one 64-id neighborhood of a Bits set: the block index
// (id >> 6) plus the occupancy word. Keeping index and word in one struct
// means a set is a single allocation however it grows.
type bitsBlock struct {
	idx  uint32
	word uint64
}

// Bits is a sparse bitset over CellIDs: a sorted list of 64-bit word blocks
// (roaring-lite), so points-to sets cost one word per 64-id neighborhood
// actually populated instead of one map entry per fact. The zero value is an
// empty, ready-to-use set.
//
// The solver's hot loop runs entirely on this type: membership and insertion
// are a binary search plus a bit test, and whole-batch propagation through a
// copy edge is a word-wise merge (UnionInPlace / UnionDiff) rather than a
// per-fact map probe. UnionDiff additionally reports exactly the newly-set
// ids, which is what the difference-propagation worklist needs: every new
// fact is pushed once, and already-known facts cost one AND-NOT per word.
// Merges grow the receiver in place (one backward pass after an append), so
// at steady state propagation allocates nothing.
type Bits struct {
	blocks []bitsBlock
	n      int // population count
}

// search returns the insertion position of block blk in b.blocks.
func (b *Bits) search(blk uint32) int {
	// Fast path: append-mostly workloads hit the tail.
	if n := len(b.blocks); n == 0 || b.blocks[n-1].idx < blk {
		return n
	}
	lo, hi := 0, len(b.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.blocks[mid].idx < blk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts id, reporting whether it was new.
func (b *Bits) Add(id CellID) bool {
	blk, bit := uint32(id>>6), uint64(1)<<(id&63)
	i := b.search(blk)
	if i < len(b.blocks) && b.blocks[i].idx == blk {
		if b.blocks[i].word&bit != 0 {
			return false
		}
		b.blocks[i].word |= bit
		b.n++
		return true
	}
	if cap(b.blocks) == 0 {
		b.blocks = make([]bitsBlock, 0, 4)
	}
	b.blocks = append(b.blocks, bitsBlock{})
	copy(b.blocks[i+1:], b.blocks[i:])
	b.blocks[i] = bitsBlock{idx: blk, word: bit}
	b.n++
	return true
}

// Has reports membership.
func (b *Bits) Has(id CellID) bool {
	blk := uint32(id >> 6)
	i := b.search(blk)
	return i < len(b.blocks) && b.blocks[i].idx == blk && b.blocks[i].word&(1<<(id&63)) != 0
}

// Remove clears id, reporting whether it was present. Emptied blocks are
// kept (they re-fill in practice); Len and Iterate are unaffected.
func (b *Bits) Remove(id CellID) bool {
	blk, bit := uint32(id>>6), uint64(1)<<(id&63)
	i := b.search(blk)
	if i >= len(b.blocks) || b.blocks[i].idx != blk || b.blocks[i].word&bit == 0 {
		return false
	}
	b.blocks[i].word &^= bit
	b.n--
	return true
}

// Len returns the population count.
func (b *Bits) Len() int { return b.n }

// Clear empties the set, keeping the allocated blocks for reuse.
func (b *Bits) Clear() {
	b.blocks = b.blocks[:0]
	b.n = 0
}

// Iterate calls fn for every set id in ascending order. fn must not mutate b.
func (b *Bits) Iterate(fn func(CellID)) {
	for i := range b.blocks {
		w := b.blocks[i].word
		base := CellID(b.blocks[i].idx) << 6
		for w != 0 {
			fn(base + CellID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// AppendTo appends every set id to buf in ascending order and returns it —
// the snapshot primitive for iterating while the set may grow.
func (b *Bits) AppendTo(buf []CellID) []CellID {
	for i := range b.blocks {
		w := b.blocks[i].word
		base := CellID(b.blocks[i].idx) << 6
		for w != 0 {
			buf = append(buf, base+CellID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return buf
}

// subsumes reports whether every id of o is already in b — one AND-NOT per
// shared block, no writes. Callers gate it on o.n <= b.n (a larger source
// cannot be a subset), which is what makes it a profitable pre-check: the
// solver's redundant merges around cycles hit this path constantly.
func (b *Bits) subsumes(o *Bits) bool {
	bi := 0
	for oi := range o.blocks {
		blk := o.blocks[oi].idx
		for bi < len(b.blocks) && b.blocks[bi].idx < blk {
			bi++
		}
		if bi == len(b.blocks) || b.blocks[bi].idx != blk ||
			o.blocks[oi].word&^b.blocks[bi].word != 0 {
			return false
		}
	}
	return true
}

// intersects reports whether b and o share an id — one AND per shared block.
func (b *Bits) intersects(o *Bits) bool {
	bi := 0
	for _, ob := range o.blocks {
		for bi < len(b.blocks) && b.blocks[bi].idx < ob.idx {
			bi++
		}
		if bi < len(b.blocks) && b.blocks[bi].idx == ob.idx && b.blocks[bi].word&ob.word != 0 {
			return true
		}
	}
	return false
}

// UnionInPlace adds every id of o to b, returning how many were new.
// o is not modified; b and o may not alias unless identical (a self-union
// is a no-op).
func (b *Bits) UnionInPlace(o *Bits) int {
	if o == b || o.n == 0 {
		return 0
	}
	// Popcount-gated subset early exit: when o cannot outnumber b, one
	// read-only scan settles whether there is anything to do — the common
	// case for the redundant propagation that circles collapsed cycles.
	if o.n <= b.n && b.subsumes(o) {
		return 0
	}
	// Count o's blocks missing from b to decide whether the block list
	// must grow.
	missing := 0
	bi := 0
	for oi := range o.blocks {
		blk := o.blocks[oi].idx
		for bi < len(b.blocks) && b.blocks[bi].idx < blk {
			bi++
		}
		if bi == len(b.blocks) || b.blocks[bi].idx != blk {
			missing++
		}
	}
	if missing == 0 {
		// Every block exists: OR word-wise in place.
		added := 0
		bi = 0
		for oi := range o.blocks {
			for b.blocks[bi].idx != o.blocks[oi].idx {
				bi++
			}
			before := bits.OnesCount64(b.blocks[bi].word)
			b.blocks[bi].word |= o.blocks[oi].word
			added += bits.OnesCount64(b.blocks[bi].word) - before
		}
		b.n += added
		return added
	}
	// Grow the tail, then merge backwards in place: each source block is
	// read before its slot is overwritten because the write position never
	// overtakes the read position from behind.
	old := len(b.blocks)
	for i := 0; i < missing; i++ {
		b.blocks = append(b.blocks, bitsBlock{})
	}
	w := len(b.blocks) - 1
	bi, oi := old-1, len(o.blocks)-1
	for oi >= 0 {
		if bi >= 0 && b.blocks[bi].idx > o.blocks[oi].idx {
			b.blocks[w] = b.blocks[bi]
			bi--
		} else if bi >= 0 && b.blocks[bi].idx == o.blocks[oi].idx {
			b.blocks[w] = bitsBlock{idx: b.blocks[bi].idx, word: b.blocks[bi].word | o.blocks[oi].word}
			bi--
			oi--
		} else {
			b.blocks[w] = o.blocks[oi]
			oi--
		}
		w--
	}
	// Remaining b-blocks are already in position (bi == w after the loop).
	total := 0
	for i := range b.blocks {
		total += bits.OnesCount64(b.blocks[i].word)
	}
	added := total - b.n
	b.n = total
	return added
}

// UnionDiff adds every id of o to b and appends exactly the newly-set ids
// to buf (ascending), returning buf. This is the diff-propagation primitive:
// the caller pushes the returned ids — and only those — onto the worklist.
func (b *Bits) UnionDiff(o *Bits, buf []CellID) []CellID {
	if o == b || o.n == 0 {
		return buf
	}
	// Popcount-gated subset early exit, as in UnionInPlace: a contained
	// source produces no diff and no writes, so settle it with the
	// read-only scan and skip both the append loop and the union.
	if o.n <= b.n && b.subsumes(o) {
		return buf
	}
	// Pre-size buf to its o.n upper bound (at most every id of o is new):
	// one reallocation up front instead of append-doubling mid-loop on the
	// drain path.
	if free := cap(buf) - len(buf); free < o.n {
		nb := make([]CellID, len(buf), len(buf)+o.n)
		copy(nb, buf)
		buf = nb
	}
	start := len(buf)
	bi := 0
	for oi := range o.blocks {
		blk := o.blocks[oi].idx
		for bi < len(b.blocks) && b.blocks[bi].idx < blk {
			bi++
		}
		w := o.blocks[oi].word
		if bi < len(b.blocks) && b.blocks[bi].idx == blk {
			w &^= b.blocks[bi].word
		}
		base := CellID(blk) << 6
		for w != 0 {
			buf = append(buf, base+CellID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	if len(buf) > start {
		b.UnionInPlace(o)
	}
	return buf
}

// UnionAll adds every id of every source set to b, returning how many were
// new. It is the fan-in primitive of the parallel wave barrier: several
// shards' pending buffers targeting one cell merge in a single k-way
// block-merge pass (one count pass, one backward placement pass), instead
// of k full UnionInPlace passes each moving b's tail. Sources equal to b or
// nil are skipped; sources are not modified.
func (b *Bits) UnionAll(srcs []*Bits) int {
	// Collect live sources; degenerate fan-ins fall back to the pairwise
	// primitives.
	var liveArr [8]*Bits
	live := liveArr[:0]
	for _, o := range srcs {
		if o == nil || o == b || o.n == 0 {
			continue
		}
		if len(live) == cap(live) {
			grown := make([]*Bits, len(live), 2*len(live))
			copy(grown, live)
			live = grown
		}
		live = append(live, o)
	}
	switch len(live) {
	case 0:
		return 0
	case 1:
		return b.UnionInPlace(live[0])
	}

	// Pass 1: count the distinct block indexes the union of the sources
	// contributes beyond b, with a k-way forward scan.
	var curArr [8]int
	cur := curArr[:0]
	for range live {
		cur = append(cur, 0)
	}
	missing := 0
	bi := 0
	for {
		// Smallest unconsumed block index across the sources.
		blk := ^uint32(0)
		for i, o := range live {
			if cur[i] < len(o.blocks) && o.blocks[cur[i]].idx < blk {
				blk = o.blocks[cur[i]].idx
			}
		}
		if blk == ^uint32(0) {
			break
		}
		for i, o := range live {
			if cur[i] < len(o.blocks) && o.blocks[cur[i]].idx == blk {
				cur[i]++
			}
		}
		for bi < len(b.blocks) && b.blocks[bi].idx < blk {
			bi++
		}
		if bi == len(b.blocks) || b.blocks[bi].idx != blk {
			missing++
		}
	}

	// Pass 2: grow b's tail by the missing blocks and merge backwards —
	// the UnionInPlace trick generalized to k sources: at each step the
	// largest pending block index is placed, OR-ing together every source
	// (and b) block sharing it. Each of b's original blocks is read before
	// its slot is overwritten because the write cursor never overtakes the
	// read cursor from behind.
	old := len(b.blocks)
	for i := 0; i < missing; i++ {
		b.blocks = append(b.blocks, bitsBlock{})
	}
	for i, o := range live {
		cur[i] = len(o.blocks) - 1
	}
	w := len(b.blocks) - 1
	rb := old - 1
	for {
		// Largest unplaced block index across b and the sources.
		blk := uint32(0)
		have := false
		if rb >= 0 {
			blk, have = b.blocks[rb].idx, true
		}
		for i, o := range live {
			if cur[i] >= 0 {
				if idx := o.blocks[cur[i]].idx; !have || idx > blk {
					blk, have = idx, true
				}
			}
		}
		if !have {
			break
		}
		word := uint64(0)
		if rb >= 0 && b.blocks[rb].idx == blk {
			word = b.blocks[rb].word
			rb--
		}
		for i, o := range live {
			if cur[i] >= 0 && o.blocks[cur[i]].idx == blk {
				word |= o.blocks[cur[i]].word
				cur[i]--
			}
		}
		b.blocks[w] = bitsBlock{idx: blk, word: word}
		w--
	}
	total := 0
	for i := range b.blocks {
		total += bits.OnesCount64(b.blocks[i].word)
	}
	added := total - b.n
	b.n = total
	return added
}
