package core

import (
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// CIS implements the §4.3.3 "Common Initial Sequence" instance: like
// Collapse on Cast, but when two structure types share a common initial
// sequence (ISO C guarantees identical layout for it), accesses within that
// sequence still match field-for-field even across a cast. Portable, and
// the most precise of the portable instances.
type CIS struct {
	fieldOps
	cis map[[2]*types.Type][]types.FieldPair
}

var _ Strategy = (*CIS)(nil)

// NewCIS returns the Common Initial Sequence instance.
func NewCIS() *CIS {
	s := &CIS{cis: make(map[[2]*types.Type][]types.FieldPair)}
	s.init(s.lookup)
	return s
}

// Name implements Strategy.
func (s *CIS) Name() string { return "common-initial-seq" }

// lookup is the uncounted core of CIS lookup:
//
//  1. If some enclosing candidate δ of the target cell has a type
//     compatible with τ, the access maps exactly (the full common case).
//  2. Otherwise, if some candidate's type shares a non-empty common initial
//     sequence with τ and the accessed field lies inside it, the access
//     maps to the corresponding field.
//  3. Otherwise all fields of the target object starting at the first field
//     after the common initial sequence (or at the target itself when the
//     sequence is empty) are returned.
func (s *CIS) lookup(τ *types.Type, path ir.Path, target Cell) ([]Cell, bool) {
	e := s.obj(target.Obj)
	if e.tb == nil {
		return s.scalarLookup(τ, e)
	}
	tb := e.tb
	cands := tb.nodes[target.Node].cands

	for _, cand := range cands {
		if s.compatible(τ, cand.typ) {
			return e.cell(tb.normalizeFrom(cand.node, path)), false
		}
	}

	// Partial match through a common initial sequence.
	if isRecordType(τ) && !τ.Record.Union && len(path) > 0 {
		for _, cand := range cands {
			if cand.typ == nil || !cand.typ.IsRecord() || cand.typ.Record.Union {
				continue
			}
			pairs := s.commonInitial(τ, cand.typ)
			if len(pairs) == 0 {
				continue
			}
			ai := τ.Record.FieldIndex(path[0])
			if ai >= 0 && ai < len(pairs) {
				// Inside the sequence: corresponding field, then the
				// rest of the path (member types are compatible, so
				// the remaining components exist on both sides).
				n := cand.node
				if k, ok := tb.child(n, cand.typ.Record.Fields[pairs[ai].B].Name, true); ok {
					n = tb.normalizeFrom(k, path[1:])
				}
				return e.cell(n), true
			}
			// Outside the sequence: all fields of the object starting
			// with the first field after the sequence.
			if len(pairs) < len(cand.typ.Record.Fields) {
				n := cand.node
				if k, ok := tb.child(n, cand.typ.Record.Fields[len(pairs)].Name, true); ok {
					n = tb.nodes[k].first
				}
				return e.smear(n), true
			}
			// The sequence covers the whole candidate: spill into the
			// fields following the candidate (Complication 1).
			return e.smearAfter(cand.node), true
		}
	}

	return e.smear(target.Node), true
}

// commonInitial is types.CommonInitialSequence of two structure types,
// cached per (τ, candidate type).
func (s *CIS) commonInitial(τ, t *types.Type) []types.FieldPair {
	k := [2]*types.Type{τ, t}
	pairs, ok := s.cis[k]
	if !ok {
		pairs = types.CommonInitialSequence(τ.Record, t.Record)
		s.cis[k] = pairs
	}
	return pairs
}

// smearAfter returns all cells of obj strictly after the leaves under node
// n (used when an access runs past the end of a nested structure): the
// suffix of the object's cell slice past n's subtree.
func (e objEntry) smearAfter(n int32) []Cell {
	nd := &e.tb.nodes[n]
	if nd.leafLo < nd.leafHi && int(nd.leafHi) < len(e.cells) {
		return e.cells[nd.leafHi:]
	}
	// Nothing follows: keep the last cell of the candidate so that the
	// result is never empty (safe fallback).
	return e.smear(nd.norm)
}
