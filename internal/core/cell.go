// Package core implements the paper's tunable pointer-analysis framework:
// the inference rules of Figure 2 as a worklist fixpoint solver, driven by
// a Strategy that supplies the three functions normalize, lookup and
// resolve. The four instances — Offsets, Collapse Always, Collapse on Cast
// and Common Initial Sequence — are provided as Strategy implementations.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Cell is a normalized abstract memory location: an object plus a selector.
// The selector space depends on the strategy: the Offsets instance uses byte
// offsets (Off, with ByOff set), the field-based instances use normalized
// field paths (Node), and the Collapse Always instance uses neither.
type Cell struct {
	Obj *ir.Object
	Off int64

	// Node is the field path's index in the leaf table of Obj's type
	// (flatten.go): 0 is the empty path, the object itself. The index is
	// a function of the type's structure, so it is fixed-size, cheap to
	// hash and compare, and the same in every solve; Path renders it.
	Node int32

	// ByOff marks a cell whose selector is a byte offset. The Offsets
	// strategy sets it on every cell it produces, so its offset-0 cell
	// renders as "obj@0" and cannot be confused with (or compare equal
	// to) the selector-free whole-object cell the collapsing strategies
	// use for the same object.
	ByOff bool
}

func (c Cell) String() string { return c.name(c.Path()) }

// name renders the cell given its rendered path.
func (c Cell) name(path string) string {
	switch {
	case c.Obj == nil:
		return "<nil>"
	case path != "":
		return c.Obj.Name + "." + path
	case c.ByOff || c.Off != 0:
		return fmt.Sprintf("%s@%d", c.Obj.Name, c.Off)
	default:
		return c.Obj.Name
	}
}

// Path renders the cell's field path in dotted form ("" for none). It walks
// the object's type; hot renderers use a strategy's leaf tables instead
// (see pathOf).
func (c Cell) Path() string {
	if c.Node == 0 || c.Obj == nil {
		return ""
	}
	return nodePath(c.Obj.Type, c.Node)
}

// CellAt returns the cell of obj with the given selector, its field path in
// the dotted form Path renders; ok is false when obj's type has no such
// path. It is the inverse of Path for reading cells back from text.
func CellAt(obj *ir.Object, off int64, path string, byOff bool) (c Cell, ok bool) {
	c = Cell{Obj: obj, Off: off, ByOff: byOff}
	if path == "" {
		return c, true
	}
	if obj == nil || obj.Type == nil {
		return c, false
	}
	c.Node, ok = nodeIndex(obj.Type, ir.Path(strings.Split(path, ".")))
	return c, ok
}

// CellSet is a set of cells.
type CellSet map[Cell]struct{}

// Add inserts c, reporting whether it was new.
func (s CellSet) Add(c Cell) bool {
	if _, ok := s[c]; ok {
		return false
	}
	s[c] = struct{}{}
	return true
}

// Has reports membership.
func (s CellSet) Has(c Cell) bool {
	_, ok := s[c]
	return ok
}

// Len returns the number of cells.
func (s CellSet) Len() int { return len(s) }

// Sorted returns the cells in a stable display order (cellLess).
func (s CellSet) Sorted() []Cell {
	out := make([]Cell, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	paths := make(map[Cell]string)
	for _, c := range out {
		if c.Node != 0 {
			paths[c] = c.Path()
		}
	}
	sort.Slice(out, func(i, j int) bool { return cellLess(out[i], out[j], paths[out[i]], paths[out[j]]) })
	return out
}

// cellLess is the display order of cells: by object name, object ID,
// offset, rendered path (pa and pb), and whole-object before offset 0.
func cellLess(a, b Cell, pa, pb string) bool {
	if a.Obj != b.Obj {
		if a.Obj.Name != b.Obj.Name {
			return a.Obj.Name < b.Obj.Name
		}
		return a.Obj.ID < b.Obj.ID
	}
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	if pa != pb {
		return pa < pb
	}
	return !a.ByOff && b.ByOff
}

// Edge is a copy constraint produced by resolve: facts arriving at (a range
// around) Src flow to the corresponding position at Dst.
//
// For the field-based strategies an edge relates exactly one source cell to
// one destination cell (Size is 0). For the Offsets strategy an edge covers
// Size bytes starting at the two cells' offsets — the paper's
// "⟨s.(j+i), t.(k+i)⟩ for i in 0..sizeof(τ)-1" expressed as a range rather
// than materialized per byte.
type Edge struct {
	Dst, Src Cell
	Size     int64 // 0: exact cell; >0: byte range (Offsets); -1: whole object
}

func (e Edge) String() string {
	switch {
	case e.Size > 0:
		return fmt.Sprintf("%s ⇐ %s [%d bytes]", e.Dst, e.Src, e.Size)
	case e.Size < 0:
		return fmt.Sprintf("%s ⇐ %s [all]", e.Dst, e.Src)
	default:
		return fmt.Sprintf("%s ⇐ %s", e.Dst, e.Src)
	}
}
