package core

import (
	"strings"

	"repro/internal/cc/types"
	"repro/internal/ir"
)

// This file contains the type-flattening machinery shared by the field-based
// strategies: a per-type leaf table that enumerates a type's field paths
// once and precomputes, for each of them, the paper's first-field
// normalization, the enclosing-structure candidates and the position among
// the normalized leaves that followingFields smearing starts from.
//
// Normalized cells of an object are:
//   - for a scalar: the object itself (empty path);
//   - for a struct: the leaves of its fields, in declaration order;
//   - for a union: a single cell at the union (unions are collapsed, which
//     keeps the analysis safe without modeling overlap — see DESIGN.md);
//   - for an array: the cells of its single representative element.

const maxDepth = 64 // defensive bound against malformed recursive types

// leafTable is the immutable field-path table of one type. It lists every
// field path of the type — one node per named field, recursively, through
// arrays (a path never indexes an array) and into union members — in layout
// (pre-)order, so node 0 is the empty path and a node's subtree is the
// contiguous range of nodes after it. A field-instance Cell names its
// selector by node index; the index is a function of the type's structure
// alone, so every table built for the same type agrees on it.
type leafTable struct {
	nodes  []fieldNode
	leaves []int32 // the normalized leaves' node indexes, in layout order
}

// fieldNode is one field path of a leafTable.
type fieldNode struct {
	path  string      // dotted path, "" at the root; rendered once, shared
	comps ir.Path     // the path's components
	typ   *types.Type // declared type at the path (nil when unknown)
	kids  []int32     // child node per field of the array-stripped record; -1 for unnamed fields
	end   int32       // one past the last node of the subtree
	first int32       // innermost first field: the path extended through first fields
	norm  int32       // normalize of the path (truncated at the first union)
	leaf  int32       // rank among the leaves, -1 for an interior or union-member node

	// leafLo and leafHi bound the leaves inside the subtree: [leafLo, leafHi).
	leafLo, leafHi int32

	// cands are the enclosing-structure candidates δ with
	// normalize(t.δ) == this path, innermost first.
	cands []candidate
}

// candidate is one enclosing-structure candidate δ for a cell: a node on the
// cell's path whose normalization is the cell, with its (array-stripped)
// type.
type candidate struct {
	node int32
	typ  *types.Type
}

// newLeafTable builds the table of t.
func newLeafTable(t *types.Type) *leafTable {
	tb := &leafTable{}
	tb.add(t, nil, 0)
	tb.markLeaves(0, 0)
	if len(tb.leaves) == 0 {
		// No named scalar anywhere: the object is its own single cell.
		tb.nodes[0].leaf = 0
		tb.leaves = append(tb.leaves, 0)
	}
	// Leaf ranks grow with node index, so a subtree's leaves are the ranks
	// counted between its first node and its end.
	before := int32(0)
	for i := range tb.nodes {
		tb.nodes[i].leafLo = before
		if tb.nodes[i].leaf >= 0 {
			before++
		}
	}
	for i := range tb.nodes {
		n := &tb.nodes[i]
		n.leafHi = int32(len(tb.leaves))
		if n.end < int32(len(tb.nodes)) {
			n.leafHi = tb.nodes[n.end].leafLo
		}
	}
	for i := range tb.nodes {
		n := &tb.nodes[i]
		n.first = tb.descendFirstField(int32(i))
		n.norm = tb.normalizeFrom(0, n.comps)
	}
	for i := range tb.nodes {
		tb.nodes[i].cands = tb.candidates(int32(i))
	}
	return tb
}

// add appends the node for path (of type t) and, recursively, its subtree.
func (tb *leafTable) add(t *types.Type, path ir.Path, depth int) int32 {
	idx := int32(len(tb.nodes))
	tb.nodes = append(tb.nodes, fieldNode{path: strings.Join(path, "."), comps: path, typ: t, leaf: -1})
	if r := stripArrays(t); depth <= maxDepth && r != nil && r.IsRecord() && len(r.Record.Fields) > 0 {
		kids := make([]int32, len(r.Record.Fields))
		for i := range r.Record.Fields {
			f := &r.Record.Fields[i]
			kids[i] = -1
			if f.Name == "" {
				continue // unnamed bit-field padding
			}
			kids[i] = tb.add(f.Type, path.Extend(f.Name), depth+1)
		}
		tb.nodes[idx].kids = kids
	}
	tb.nodes[idx].end = int32(len(tb.nodes))
	return idx
}

// markLeaves ranks the normalized leaves under node n in layout order: a
// scalar, a union (collapsed) or an incomplete or empty struct is one leaf;
// a struct contributes the leaves of its named fields.
func (tb *leafTable) markLeaves(n int32, depth int) {
	nd := &tb.nodes[n]
	r := stripArrays(nd.typ)
	if depth <= maxDepth && r != nil && r.Kind == types.Struct && r.Record.Complete && len(r.Record.Fields) > 0 {
		for _, k := range nd.kids {
			if k >= 0 {
				tb.markLeaves(k, depth+1)
			}
		}
		return
	}
	nd.leaf = int32(len(tb.leaves))
	tb.leaves = append(tb.leaves, n)
}

func stripArrays(t *types.Type) *types.Type {
	for t != nil && t.Kind == types.Array {
		t = t.Elem
	}
	return t
}

// child steps from node n to its field name. Under normalization (norm) the
// step is refused at a union — the union is the cell — as it is at a
// scalar or a missing field.
func (tb *leafTable) child(n int32, name string, norm bool) (int32, bool) {
	nd := &tb.nodes[n]
	r := stripArrays(nd.typ)
	if r == nil || !r.IsRecord() || norm && r.Kind == types.Union {
		return n, false
	}
	i := r.Record.FieldIndex(name)
	if i < 0 || i >= len(nd.kids) || nd.kids[i] < 0 {
		return n, false
	}
	return nd.kids[i], true
}

// walk follows path from node n through records and unions, reporting
// whether every component was found (n is left at the last one that was).
func (tb *leafTable) walk(n int32, path ir.Path) (int32, bool) {
	for _, name := range path {
		k, ok := tb.child(n, name, false)
		if !ok {
			return n, false
		}
		n = k
	}
	return n, true
}

// normalizeFrom is the paper's normalize for the portable instances, from
// node n: the path is truncated at the first union (or at a component the
// type does not have), and a path that fits is then extended through first
// fields until it names a non-aggregate.
func (tb *leafTable) normalizeFrom(n int32, path ir.Path) int32 {
	for _, name := range path {
		k, ok := tb.child(n, name, true)
		if !ok {
			return n
		}
		n = k
	}
	return tb.nodes[n].first
}

// descendFirstField extends node n through innermost first fields while the
// current type is a complete struct whose first field is named.
func (tb *leafTable) descendFirstField(n int32) int32 {
	for depth := 0; depth < maxDepth; depth++ {
		nd := &tb.nodes[n]
		r := stripArrays(nd.typ)
		if r == nil || r.Kind != types.Struct || !r.Record.Complete || len(nd.kids) == 0 || nd.kids[0] < 0 {
			return n
		}
		n = nd.kids[0]
	}
	return n
}

// candidates returns the candidates δ with normalize(t.δ) == node n,
// innermost (longest δ) first: the paper's search for an enclosing
// structure of which the cell is the innermost first field. Once a shorter
// prefix stops normalizing to the cell no shorter one can (normalization
// only descends through first fields), so the search stops there.
func (tb *leafTable) candidates(n int32) []candidate {
	var out []candidate
	for p, depth := n, len(tb.nodes[n].comps); depth >= 0; depth-- {
		pn := &tb.nodes[p]
		if pn.typ != nil {
			if pn.norm == n {
				out = append(out, candidate{node: p, typ: stripArrays(pn.typ)})
			} else if p != n {
				break
			}
		}
		if depth > 0 {
			p = tb.parent(p)
		}
	}
	return out
}

// parent returns the node one component up from n (n > 0): the nearest
// preceding node whose subtree contains n.
func (tb *leafTable) parent(n int32) int32 {
	for p := n - 1; ; p-- {
		if tb.nodes[p].end > n {
			return p
		}
	}
}

// nodePath renders node n of t's table without building the table (for
// Cell.String outside a solve): it skips whole subtrees by their node
// counts until it reaches n.
func nodePath(t *types.Type, n int32) string {
	var b strings.Builder
	for at := int32(0); at != n; {
		r := stripArrays(t)
		if r == nil || !r.IsRecord() {
			return "?"
		}
		at++ // step into the record's first named field
		found := false
		for i := range r.Record.Fields {
			f := &r.Record.Fields[i]
			if f.Name == "" {
				continue
			}
			size := nodeCount(f.Type, 0)
			if n < at+size {
				if b.Len() > 0 {
					b.WriteByte('.')
				}
				b.WriteString(f.Name)
				t, found = f.Type, true
				break
			}
			at += size
		}
		if !found {
			return "?"
		}
	}
	return b.String()
}

// nodeIndex is the inverse of nodePath: the node of t's table that path
// names, found without building the table; ok is false when t has no such
// path.
func nodeIndex(t *types.Type, path ir.Path) (n int32, ok bool) {
	for _, name := range path {
		r := stripArrays(t)
		if r == nil || !r.IsRecord() {
			return 0, false
		}
		i := r.Record.FieldIndex(name)
		if i < 0 || name == "" {
			return 0, false
		}
		n++ // the record's first named field
		for j := 0; j < i; j++ {
			if f := &r.Record.Fields[j]; f.Name != "" {
				n += nodeCount(f.Type, 0)
			}
		}
		t = r.Record.Fields[i].Type
	}
	return n, true
}

// NodeMap maps the field paths of type from onto those of type to: m[n] is
// the node of to that spells from's node n, or -1 when to has no such path.
// It carries cells across programs (incremental resume), where an object's
// type may have changed shape.
func NodeMap(from, to *types.Type) []int32 {
	a, b := newLeafTable(from), newLeafTable(to)
	m := make([]int32, len(a.nodes))
	for i := range a.nodes {
		m[i] = -1
		if n, ok := b.walk(0, a.nodes[i].comps); ok {
			m[i] = n
		}
	}
	return m
}

// nodeCount is the number of nodes in the subtree of a path of type t.
func nodeCount(t *types.Type, depth int) int32 {
	n := int32(1)
	if r := stripArrays(t); depth <= maxDepth && r != nil && r.IsRecord() {
		for i := range r.Record.Fields {
			if f := &r.Record.Fields[i]; f.Name != "" {
				n += nodeCount(f.Type, depth+1)
			}
		}
	}
	return n
}

// leafCount returns the number of scalar leaves under t (unions count all
// their members' leaves; used for the Figure 4 per-field expansion).
func leafCount(t *types.Type) int {
	if t == nil {
		return 1
	}
	switch t.Kind {
	case types.Array:
		return leafCount(t.Elem)
	case types.Struct, types.Union:
		if !t.Record.Complete || len(t.Record.Fields) == 0 {
			return 1
		}
		n := 0
		for i := range t.Record.Fields {
			if t.Record.Fields[i].Name == "" {
				continue
			}
			n += leafCount(t.Record.Fields[i].Type)
		}
		if n == 0 {
			return 1
		}
		return n
	default:
		return 1
	}
}
