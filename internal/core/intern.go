package core

// CellID is a dense per-run identifier for an interned Cell. IDs are
// assigned in first-seen order by a CellTable, so a run's cell universe maps
// onto a compact [0, Len) range and points-to sets become Bits bitsets
// instead of map[Cell]struct{} hashes.
type CellID uint32

// CellTable interns normalized Cells to dense CellIDs and back. It is
// per-run state: strategies still speak Cell at their API boundary, and the
// solver interns each cell once — at edge-creation or fact-creation time —
// so the fixpoint's hot loop never hashes a three-field struct.
type CellTable struct {
	ids   map[Cell]CellID
	cells []Cell
}

// NewCellTable returns an empty table.
func NewCellTable() *CellTable { return newCellTable(0) }

// newCellTable returns an empty table with room for n cells.
func newCellTable(n int) *CellTable {
	return &CellTable{ids: make(map[Cell]CellID, n), cells: make([]Cell, 0, n)}
}

// ID interns c, assigning the next dense id on first sight.
func (t *CellTable) ID(c Cell) CellID {
	if id, ok := t.ids[c]; ok {
		return id
	}
	id := CellID(len(t.cells))
	t.ids[c] = id
	t.cells = append(t.cells, c)
	return id
}

// Find returns c's id without interning it.
func (t *CellTable) Find(c Cell) (CellID, bool) {
	id, ok := t.ids[c]
	return id, ok
}

// Cell returns the cell for an id previously returned by ID.
func (t *CellTable) Cell(id CellID) Cell { return t.cells[id] }

// Len returns the number of interned cells; valid ids are [0, Len).
func (t *CellTable) Len() int { return len(t.cells) }
