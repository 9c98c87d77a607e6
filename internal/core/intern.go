package core

import "repro/internal/ir"

// CellID is a dense per-run identifier for an interned Cell. IDs are
// assigned in first-seen order by a CellTable, so a run's cell universe maps
// onto a compact [0, Len) range and points-to sets become Bits bitsets
// instead of map[Cell]struct{} hashes.
type CellID uint32

// CellTable interns normalized Cells to dense CellIDs and back. It is
// per-run state: strategies still speak Cell at their API boundary, and the
// solver interns each cell where a strategy hands it over.
//
// A table built for a program finds most cells without hashing: every
// object of the program owns a run of slots, one per node of its type's
// leaf table (one for a scalar, and one per object under the strategies
// without leaf tables), and a cell with a zero offset lives in slot
// base[Obj.ID] + Node. A slot holds its cell's id plus one (zero: not yet
// interned). A hit is confirmed against the stored cell, so a cell of an
// object from another program whose ID collides is never mistaken for one
// of this program's. Every other cell — Offsets' byte cells, the unknown
// object, foreign objects, a cell whose slot another cell took — goes to
// the overflow map. Ids are handed out in first-sight order either way.
type CellTable struct {
	base  []int32  // base[id]: first slot of object id; base[id+1]-base[id] its slot count
	slot  []CellID // id+1 of the cell in each slot, 0 when free
	over  map[Cell]CellID
	cells []Cell
}

// NewCellTable returns an empty table with no slots: every cell goes
// through the overflow map.
func NewCellTable() *CellTable { return &CellTable{} }

// newCellTable returns an empty table with room for n cells and a run of
// nodes(o) slots for every object o of prog. byOff says the strategy keys
// cells by byte offset: its cells with a non-zero offset all go to the
// overflow map, so that map is sized once, for a quarter of the n cells
// (the corpus and the generated cast-heavy program put 0-26% there).
func newCellTable(prog *ir.Program, nodes func(*ir.Object) int32, n int, byOff bool) *CellTable {
	t := &CellTable{cells: make([]Cell, 0, n)}
	if byOff {
		t.over = make(map[Cell]CellID, n/4)
	}
	// IDs are dense from 1 in a lowered program; a hand-built one with
	// sparse IDs leaves its outliers to the overflow map.
	limit := 4*len(prog.Objects) + 64
	top := -1
	for _, o := range prog.Objects {
		if o.ID < limit {
			top = max(top, o.ID)
		}
	}
	if top < 0 {
		return t
	}
	t.base = make([]int32, top+2)
	for _, o := range prog.Objects {
		if o.ID >= 0 && o.ID <= top {
			t.base[o.ID+1] = max(t.base[o.ID+1], nodes(o))
		}
	}
	for i := 1; i < len(t.base); i++ {
		t.base[i] += t.base[i-1]
	}
	t.slot = make([]CellID, t.base[top+1])
	return t
}

// slotOf returns c's slot index, or -1 when c has none.
func (t *CellTable) slotOf(c Cell) int {
	if c.Off != 0 || c.Obj == nil {
		return -1
	}
	id := c.Obj.ID
	if id < 0 || id >= len(t.base)-1 {
		return -1
	}
	lo := t.base[id]
	if uint32(c.Node) >= uint32(t.base[id+1]-lo) {
		return -1
	}
	return int(lo + c.Node)
}

// ID interns c, assigning the next dense id on first sight.
func (t *CellTable) ID(c Cell) CellID {
	if i := t.slotOf(c); i >= 0 {
		v := t.slot[i]
		if v == 0 {
			id := CellID(len(t.cells))
			t.slot[i] = id + 1
			t.cells = append(t.cells, c)
			return id
		}
		if t.cells[v-1] == c {
			return v - 1
		}
	}
	if id, ok := t.over[c]; ok {
		return id
	}
	if t.over == nil {
		t.over = make(map[Cell]CellID)
	}
	id := CellID(len(t.cells))
	t.over[c] = id
	t.cells = append(t.cells, c)
	return id
}

// Find returns c's id without interning it. A free slot means c was never
// interned: only a cell whose slot was taken goes to the overflow map.
func (t *CellTable) Find(c Cell) (CellID, bool) {
	if i := t.slotOf(c); i >= 0 {
		v := t.slot[i]
		if v == 0 {
			return 0, false
		}
		if t.cells[v-1] == c {
			return v - 1, true
		}
	}
	id, ok := t.over[c]
	return id, ok
}

// Cell returns the cell for an id previously returned by ID.
func (t *CellTable) Cell(id CellID) Cell { return t.cells[id] }

// Len returns the number of interned cells; valid ids are [0, Len).
func (t *CellTable) Len() int { return len(t.cells) }

// maxDenseID bounds the object IDs an objMap stores by index.
const maxDenseID = 1 << 22

// objMap is a map from objects to values stored by Obj.ID, the per-object
// counterpart of the cell slots: an entry belongs to the object recorded
// beside it, so a foreign object whose ID collides never reads another's
// value. Such an object, and objects with negative IDs or IDs from
// maxDenseID on, live in the overflow map. The zero value is empty and
// ready to use.
type objMap[V any] struct {
	own  []*ir.Object
	vals []V
	over map[*ir.Object]*V
}

// get returns o's value and whether o has an entry.
func (m *objMap[V]) get(o *ir.Object) (V, bool) {
	if id := o.ID; uint(id) < uint(len(m.own)) && m.own[id] == o {
		return m.vals[id], true
	}
	if p := m.over[o]; p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// reserve makes room for the objects with IDs below n in one allocation,
// so a map that will hold most of a program's objects does not grow by
// doubling.
func (m *objMap[V]) reserve(n int) {
	n = min(n, maxDenseID)
	if n > len(m.own) {
		m.own = append(m.own, make([]*ir.Object, n-len(m.own))...)
		m.vals = append(m.vals, make([]V, n-len(m.vals))...)
	}
}

// at returns a pointer to o's value, creating a zero entry on first use.
// The pointer is valid until the next call to at.
func (m *objMap[V]) at(o *ir.Object) *V {
	if id := o.ID; uint(id) < maxDenseID {
		if id >= len(m.own) {
			m.reserve(max(id+1, 2*len(m.own)))
		}
		switch m.own[id] {
		case nil:
			m.own[id] = o
			return &m.vals[id]
		case o:
			return &m.vals[id]
		}
	}
	p := m.over[o]
	if p == nil {
		if m.over == nil {
			m.over = make(map[*ir.Object]*V)
		}
		p = new(V)
		m.over[o] = p
	}
	return p
}
