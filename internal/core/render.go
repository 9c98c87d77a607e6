package core

import (
	"slices"
	"sort"

	"repro/internal/ir"
)

// Row is one line of a points-to dump, and its JSON form: a named
// (non-temporary) cell with a non-empty set.
type Row struct {
	Cell    string   `json:"cell"`    // the pointer cell ("p", "s.s1", ...)
	Targets []string `json:"targets"` // target cells in display order; shared, read-only
}

// rendering is a Result's display form: the one place its facts become
// strings (DESIGN.md §17). It is built once, on first use, never inside the
// solve.
type rendering struct {
	order []CellID   // every interned cell, in display order (cellLess)
	rank  []uint32   // rank[id] is id's index in order
	names []string   // names[k] is order[k]'s Cell.String()
	sets  [][]string // per representative CellID: its rendered targets
	rows  []Row
}

// pather is implemented by strategies whose cells' field paths are already
// rendered in their leaf tables (the field-based instances); the renderer
// falls back to Cell.Path, which walks the object's type, for the rest.
type pather interface {
	pathOf(c Cell) string
}

func (r *Result) render() *rendering {
	r.viewOnce.Do(func() {
		cells := r.table.cells
		v := &rendering{
			order: make([]CellID, len(cells)),
			rank:  make([]uint32, len(cells)),
			names: make([]string, len(cells)),
			sets:  make([][]string, len(cells)),
		}
		pathOf := Cell.Path
		if p, ok := r.Strategy.(pather); ok {
			pathOf = p.pathOf
		}
		paths := make([]string, len(cells))
		for i, c := range cells {
			v.order[i] = CellID(i)
			if c.Node != 0 {
				paths[i] = pathOf(c)
			}
		}
		sort.Slice(v.order, func(i, j int) bool {
			a, b := v.order[i], v.order[j]
			return cellLess(cells[a], cells[b], paths[a], paths[b])
		})
		for k, id := range v.order {
			v.rank[id] = uint32(k)
			v.names[k] = cells[id].name(paths[id])
		}
		var buf []uint32
		for i := range r.dense {
			if id := CellID(i); r.rep(id) == id {
				v.sets[i], buf = v.format(&r.dense[i], buf)
			}
		}
		// Rows go in rank order into the same sort by name the per-consumer
		// renderers used, so rows whose cells spell the same keep their places.
		for k, id := range v.order {
			if t := v.sets[r.rep(id)]; t != nil && !cells[id].Obj.IsTemp() {
				v.rows = append(v.rows, Row{Cell: v.names[k], Targets: t})
			}
		}
		sort.Slice(v.rows, func(i, j int) bool { return v.rows[i].Cell < v.rows[j].Cell })
		r.view = v
	})
	return r.view
}

// format renders a set's targets in display order, by sorting their ranks
// (nil when empty); buf is scratch space, returned for reuse.
func (v *rendering) format(b *Bits, buf []uint32) ([]string, []uint32) {
	if b.Len() == 0 {
		return nil, buf
	}
	buf = buf[:0]
	b.Iterate(func(t CellID) { buf = append(buf, v.rank[t]) })
	slices.Sort(buf)
	out := make([]string, len(buf))
	for i, k := range buf {
		out[i] = v.names[k]
	}
	return out, buf
}

// Rows returns the points-to dump: every named (non-temporary) cell with a
// non-empty set, sorted by cell name, each with its targets in display
// order. The slice and its contents are shared and must not be modified.
func (r *Result) Rows() []Row { return r.render().rows }

// Targets returns the union of the points-to sets of the objects' base
// cells as cell names in display order, nil when empty. For a single object
// the slice is the shared rendering of its set and must not be modified.
func (r *Result) Targets(objs ...*ir.Object) []string {
	v := r.render()
	if len(objs) == 1 {
		id, ok := r.table.Find(r.Strategy.Normalize(objs[0], nil))
		if !ok {
			return nil
		}
		return v.sets[r.rep(id)]
	}
	var union Bits
	for _, o := range objs {
		union.UnionInPlace(r.baseSet(o))
	}
	out, _ := v.format(&union, nil)
	return out
}
