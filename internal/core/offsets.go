package core

import (
	"repro/internal/cc/layout"
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// heapExtent bounds the byte offsets tracked inside scalar-hinted heap
// blocks (see Offsets.canon).
const heapExtent = 4096

// Offsets implements the §4.2.2 instance: cells are ⟨object, byte offset⟩
// pairs computed from one specific layout strategy. It is the most precise
// instance, but its results are only safe for the configured ABI — the
// paper's portability caveat.
//
//	normalize(s.α)        = s.offsetof(τ_s, α)
//	lookup(τ, α, t.k)     = { t.(k + offsetof(τ, α)) }
//	resolve(s.j, t.k, τ)  = { ⟨s.(j+i), t.(k+i)⟩ | 0 ≤ i < sizeof(τ) }
//
// The per-byte pair set of resolve is represented as a range Edge instead of
// being materialized (see Edge).
type Offsets struct {
	lay  *layout.Engine
	gran int64
	rec  Recorder

	leafCache map[*types.Type][]int64
}

var _ Strategy = (*Offsets)(nil)

// NewOffsets returns the Offsets instance over the given layout engine.
func NewOffsets(lay *layout.Engine) *Offsets {
	return NewOffsetsGranular(lay, 1)
}

// NewOffsetsGranular returns an Offsets instance that rounds every cell
// offset down to a multiple of gran bytes. Granularity 1 is the paper's
// per-byte sub-field model; coarser granularities trade precision for
// fewer cells (an ablation of the per-byte design choice).
func NewOffsetsGranular(lay *layout.Engine, gran int64) *Offsets {
	if lay == nil {
		lay = layout.New(nil)
	}
	if gran < 1 {
		gran = 1
	}
	return &Offsets{lay: lay, gran: gran, leafCache: make(map[*types.Type][]int64)}
}

// Name implements Strategy.
func (s *Offsets) Name() string { return "offsets" }

// Recorder implements Strategy.
func (s *Offsets) Recorder() *Recorder { return &s.rec }

// Layout exposes the engine (used by tests and reports).
func (s *Offsets) Layout() *layout.Engine { return s.lay }

func (s *Offsets) offsetOf(t *types.Type, path ir.Path) int64 {
	if t == nil || len(path) == 0 {
		return 0
	}
	off, err := s.lay.OffsetofPath(t, path)
	if err != nil {
		return 0
	}
	return off
}

// canon maps a raw byte offset in obj to its canonical form, implementing
// the paper's array adjustment: "if t.n is within any element of an array,
// n is adjusted to be the corresponding offset within the array's (single)
// representative element." Offsets beyond the object's extent have no
// well-defined referent (out-of-bounds under Assumption 1) and are dropped.
// Heap objects are treated as arrays of their inferred element type, so
// their offsets fold modulo the element size; untyped heap blobs keep a
// single cell at offset 0.
func (s *Offsets) canon(obj *ir.Object, off int64) (int64, bool) {
	if off < 0 {
		return 0, false
	}
	if s.gran > 1 {
		off = off / s.gran * s.gran
	}
	t := obj.Type
	if t == nil {
		// Untyped blob: offsets carry no type structure but remain
		// meaningful to this instance (lookup only needs the declared
		// access type); bound them like scalar-hinted heap blocks.
		if off >= heapExtent {
			off = 0
		}
		return off, true
	}
	if obj.Kind == ir.ObjHeap {
		// A heap block of record element type is an unbounded array of
		// that type: fold into the representative element. For scalar
		// element hints (char *p = malloc(n) and friends) the block is
		// routinely overlaid with record views, so byte offsets are
		// kept up to a fixed bound — heapExtent — which also bounds
		// the cell space of cyclic heap-to-heap copies.
		esz := s.lay.Sizeof(t)
		if t.IsRecord() && esz > 0 {
			off %= esz
			return s.canonIn(t, off, 0)
		}
		if off >= heapExtent {
			if esz > 0 {
				off %= esz
			} else {
				off = 0
			}
		}
		return off, true
	}
	return s.canonIn(t, off, 0)
}

func (s *Offsets) canonIn(t *types.Type, off int64, depth int) (int64, bool) {
	if t == nil || depth > maxDepth {
		return off, true
	}
	switch t.Kind {
	case types.Array:
		esz := s.lay.Sizeof(t.Elem)
		if esz <= 0 {
			return 0, true
		}
		if t.ArrayLen >= 0 && off >= esz*t.ArrayLen {
			return 0, false // beyond the whole array
		}
		rel, ok := s.canonIn(t.Elem, off%esz, depth+1)
		return rel, ok
	case types.Struct:
		if !t.Record.Complete {
			return off, true
		}
		l := s.lay.Of(t.Record)
		if off >= l.Size {
			return 0, false
		}
		// Find the field containing the offset (last field whose start
		// is <= off and which spans it).
		for i := len(t.Record.Fields) - 1; i >= 0; i-- {
			f := &t.Record.Fields[i]
			start := l.Offsets[i]
			if off < start {
				continue
			}
			fsz := s.lay.Sizeof(f.Type)
			if off < start+fsz {
				rel, ok := s.canonIn(f.Type, off-start, depth+1)
				if !ok {
					return 0, false
				}
				return start + rel, true
			}
			break // padding byte: keep as-is
		}
		return off, true
	case types.Union:
		if !t.Record.Complete {
			return off, true
		}
		if sz := s.lay.Of(t.Record).Size; off >= sz {
			return 0, false
		}
		return off, true
	default:
		if sz := s.lay.Sizeof(t); sz > 0 && off >= sz {
			return 0, false
		}
		return off, true
	}
}

// Normalize implements Strategy.
func (s *Offsets) Normalize(obj *ir.Object, path ir.Path) Cell {
	off, ok := s.canon(obj, s.offsetOf(obj.Type, path))
	if !ok {
		off = 0
	}
	return Cell{Obj: obj, Off: off, ByOff: true}
}

// Lookup implements Strategy.
func (s *Offsets) Lookup(τ *types.Type, path ir.Path, target Cell) []Cell {
	// No type test (results depend only on the declared type's layout);
	// mismatch columns do not apply to this instance.
	s.rec.recordLookup(isRecordType(τ) || objIsRecord(target.Obj), false)
	if off, ok := s.canon(target.Obj, target.Off+s.offsetOf(τ, path)); ok {
		return []Cell{{Obj: target.Obj, Off: off, ByOff: true}}
	}
	return nil // out-of-bounds access, no referent (Assumption 1)
}

// Resolve implements Strategy.
func (s *Offsets) Resolve(dst, src Cell, τ *types.Type) []Edge {
	s.rec.recordResolve(isRecordType(τ) || objIsRecord(dst.Obj) || objIsRecord(src.Obj), false)
	size := int64(-1) // unknown extent: copy everything from the offsets on
	if τ != nil {
		if n := s.lay.Sizeof(τ); n > 0 {
			size = n
		}
	}
	return []Edge{{
		Dst:  Cell{Obj: dst.Obj, Off: dst.Off, ByOff: true},
		Src:  Cell{Obj: src.Obj, Off: src.Off, ByOff: true},
		Size: size,
	}}
}

// CellsOf implements Strategy: the byte offsets of every scalar leaf of the
// object's type (the paper's "any sub-field" for Assumption 1 smearing).
func (s *Offsets) CellsOf(obj *ir.Object) []Cell {
	offs := s.leafOffsets(obj.Type)
	cells := make([]Cell, 0, len(offs))
	seen := make(map[int64]bool, len(offs))
	for _, off := range offs {
		if s.gran > 1 {
			off = off / s.gran * s.gran
		}
		if seen[off] {
			continue
		}
		seen[off] = true
		cells = append(cells, Cell{Obj: obj, Off: off, ByOff: true})
	}
	return cells
}

func (s *Offsets) leafOffsets(t *types.Type) []int64 {
	if t == nil {
		return []int64{0}
	}
	if cached, ok := s.leafCache[t]; ok {
		return cached
	}
	var out []int64
	s.appendLeafOffsets(t, 0, &out, 0)
	if len(out) == 0 {
		out = []int64{0}
	}
	// Deduplicate (union members may share offsets).
	seen := make(map[int64]bool, len(out))
	uniq := out[:0]
	for _, o := range out {
		if !seen[o] {
			seen[o] = true
			uniq = append(uniq, o)
		}
	}
	s.leafCache[t] = uniq
	return uniq
}

func (s *Offsets) appendLeafOffsets(t *types.Type, base int64, out *[]int64, depth int) {
	if t == nil || depth > maxDepth {
		*out = append(*out, base)
		return
	}
	switch t.Kind {
	case types.Array:
		// Single representative element.
		s.appendLeafOffsets(t.Elem, base, out, depth+1)
	case types.Struct, types.Union:
		if !t.Record.Complete || len(t.Record.Fields) == 0 {
			*out = append(*out, base)
			return
		}
		l := s.lay.Of(t.Record)
		for i := range t.Record.Fields {
			f := &t.Record.Fields[i]
			if f.Name == "" {
				continue
			}
			s.appendLeafOffsets(f.Type, base+l.Offsets[i], out, depth+1)
		}
	default:
		*out = append(*out, base)
	}
}

// ExpandedSize implements Strategy: one offset, one field.
func (s *Offsets) ExpandedSize(Cell) int { return 1 }

// PropagateEdge implements Strategy: a fact at src.Off + i flows to
// dst.Off + i when i falls inside the copied range. The destination offset
// is canonicalized (array folding, bounds check) so that cyclic copies with
// shifted bases cannot ratchet offsets without bound.
func (s *Offsets) PropagateEdge(e Edge, src Cell) (Cell, bool) {
	if src.Obj != e.Src.Obj {
		return Cell{}, false
	}
	delta := src.Off - e.Src.Off
	if delta < 0 {
		return Cell{}, false
	}
	if e.Size >= 0 && delta >= e.Size {
		return Cell{}, false
	}
	off, ok := s.canon(e.Dst.Obj, e.Dst.Off+delta)
	if !ok {
		return Cell{}, false
	}
	return Cell{Obj: e.Dst.Obj, Off: off, ByOff: true}, true
}
