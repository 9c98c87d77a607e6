package core

import (
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// CollapseOnCast implements the §4.3.2 instance: fields are kept separate,
// and a structure's fields are smeared together only when it is accessed as
// a type different from its declared type. Portable, and more precise than
// Collapse Always.
//
//	normalize(s.α)     = innermost first field of s.α
//	lookup(τ, α, t.β̂)  = { normalize(t.δ.α) }   if some enclosing δ of β̂
//	                                            has (compatible) type τ
//	                   = followingFields(t, β̂)  otherwise
//	resolve            = pairs of lookups over the fields of the LHS type
type CollapseOnCast struct {
	fieldOps
}

var _ Strategy = (*CollapseOnCast)(nil)

// NewCollapseOnCast returns the Collapse on Cast instance.
func NewCollapseOnCast() *CollapseOnCast {
	s := &CollapseOnCast{}
	s.init(s.lookup)
	return s
}

// NewCollapseOnCastNoNormalize returns a variant without the first-field
// normalization. It is UNSOUND (misses the §4.1 Problem 1 inferences) and
// exists only as the ablation DESIGN.md describes.
func NewCollapseOnCastNoNormalize() *CollapseOnCast {
	s := NewCollapseOnCast()
	s.noFirstField = true
	return s
}

// Name implements Strategy.
func (s *CollapseOnCast) Name() string { return "collapse-on-cast" }

// lookup is the uncounted core (also used from resolve, which per the
// paper's footnote does not count its internal lookups).
func (s *CollapseOnCast) lookup(τ *types.Type, path ir.Path, target Cell) ([]Cell, bool) {
	e := s.obj(target.Obj)
	if e.tb == nil {
		return s.scalarLookup(τ, e)
	}
	for _, cand := range e.tb.nodes[target.Node].cands {
		if s.compatible(τ, cand.typ) {
			return e.cell(s.extend(e.tb, cand.node, path)), false
		}
	}
	return e.smear(target.Node), true
}
