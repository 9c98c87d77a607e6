package core

import (
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// CollapseAlways implements the §4.3.1 instance: every structure is
// collapsed into a single variable. It is the most general and least
// precise portable strategy:
//
//	normalize(s.α)        = s
//	lookup(τ, α, t.β)     = { t }
//	resolve(s.α, t.β, τ)  = { ⟨s, t⟩ }
type CollapseAlways struct {
	rec Recorder
}

var _ Strategy = (*CollapseAlways)(nil)

// NewCollapseAlways returns the Collapse Always instance.
func NewCollapseAlways() *CollapseAlways { return &CollapseAlways{} }

// Name implements Strategy.
func (s *CollapseAlways) Name() string { return "collapse-always" }

// Recorder implements Strategy.
func (s *CollapseAlways) Recorder() *Recorder { return &s.rec }

// Normalize implements Strategy: every field of s maps to s itself.
func (s *CollapseAlways) Normalize(obj *ir.Object, _ ir.Path) Cell {
	return Cell{Obj: obj}
}

// exactEdges implements exactEdger: edges carry exactly their source cell.
func (s *CollapseAlways) exactEdges() bool { return true }

// Lookup implements Strategy.
func (s *CollapseAlways) Lookup(τ *types.Type, _ ir.Path, target Cell) []Cell {
	// The instance performs no type test (Figure 3's mismatch columns do
	// not apply); struct involvement is still recorded.
	s.rec.recordLookup(isRecordType(τ) || objIsRecord(target.Obj), false)
	return []Cell{{Obj: target.Obj}}
}

// Resolve implements Strategy.
func (s *CollapseAlways) Resolve(dst, src Cell, τ *types.Type) []Edge {
	s.rec.recordResolve(isRecordType(τ) || objIsRecord(dst.Obj) || objIsRecord(src.Obj), false)
	return []Edge{{Dst: Cell{Obj: dst.Obj}, Src: Cell{Obj: src.Obj}}}
}

// CellsOf implements Strategy: one cell per object.
func (s *CollapseAlways) CellsOf(obj *ir.Object) []Cell {
	return []Cell{{Obj: obj}}
}

// ExpandedSize implements Strategy: a collapsed fact stands for every field
// of the object (the Figure 4 expansion).
func (s *CollapseAlways) ExpandedSize(c Cell) int {
	return leafCount(c.Obj.Type)
}

// PropagateEdge implements Strategy.
func (s *CollapseAlways) PropagateEdge(e Edge, src Cell) (Cell, bool) {
	return exactEdgePropagate(e, src)
}

func isRecordType(t *types.Type) bool { return t != nil && t.IsRecord() }

func objIsRecord(o *ir.Object) bool {
	return o != nil && o.Type != nil && (o.Type.IsRecord() ||
		o.Type.Kind == types.Array && isRecordType(arrayElem(o.Type)))
}

func arrayElem(t *types.Type) *types.Type {
	for t != nil && t.Kind == types.Array {
		t = t.Elem
	}
	return t
}
