package core

import (
	"sync"

	"repro/internal/cc/types"
	"repro/internal/ir"
)

// fieldOps carries the machinery shared by the two portable field-sensitive
// strategies (Collapse on Cast and Common Initial Sequence): first-field
// normalization, enclosing-candidate search, followingFields smearing, and
// the resolve construction that pairs both sides through lookup. All of it
// runs on the per-type leaf tables of flatten.go: cells carry node indexes,
// and no path string is built, split or hashed inside a solve.
type fieldOps struct {
	rec Recorder
	lk  lookupFn // the instance's uncounted lookup

	// noFirstField disables the innermost-first-field normalization
	// (ablation only: without it, a pointer to a structure and a pointer
	// to its first field are different cells, and Problem 1 accesses are
	// missed — unsound, but it quantifies what normalize buys).
	noFirstField bool

	// tables maps each type met to its leaf table. Normalize also runs
	// after the solve, from concurrent Report queries, so it is a
	// sync.Map (written once per type, read lock-free after); the tables
	// themselves are immutable.
	tables sync.Map

	// The caches below are only touched by lookup, resolve and smearing,
	// which run inside the (single-threaded) rule firing of one solve.
	objs    objMap[objEntry]
	compat  map[[2]*types.Type]bool // types.CompatibleLax, per (τ, candidate type)
	scratch []Edge                  // resolveVia's working buffer
	cellBuf []Cell                  // oneCell's unused chunk
}

// objEntry is an object's leaf table and its normalized cells in layout
// order. The cell slice is shared — smearing returns its suffixes — and
// never mutated. A scalar object (or an untyped one) gets no table: its only
// cell is itself and its only enclosing candidate is its own type, scalar.
type objEntry struct {
	tb     *leafTable
	cells  []Cell
	scalar *types.Type // the array-stripped type of a scalar object (nil: untyped)
}

// aggregate reports whether t has field paths — a record, or an array of
// records — and so needs a leaf table. Every other type has just the empty
// path.
func aggregate(t *types.Type) bool {
	r := stripArrays(t)
	return r != nil && r.IsRecord()
}

// init readies f for an instance whose uncounted lookup is lk.
func (f *fieldOps) init(lk lookupFn) {
	f.lk = lk
	f.compat = make(map[[2]*types.Type]bool)
}

// Recorder implements Strategy.
func (f *fieldOps) Recorder() *Recorder { return &f.rec }

// PropagateEdge implements Strategy.
func (f *fieldOps) PropagateEdge(e Edge, src Cell) (Cell, bool) {
	return exactEdgePropagate(e, src)
}

// exactEdges implements exactEdger: both field strategies propagate through
// exactEdgePropagate, so their Size==0 edges are indexable by source cell.
func (f *fieldOps) exactEdges() bool { return true }

// table returns t's leaf table (t != nil), building it on first use.
func (f *fieldOps) table(t *types.Type) *leafTable {
	if tb, ok := f.tables.Load(t); ok {
		return tb.(*leafTable)
	}
	tb, _ := f.tables.LoadOrStore(t, newLeafTable(t))
	return tb.(*leafTable)
}

// pathOf renders c's field path from the leaf tables (implements pather).
func (f *fieldOps) pathOf(c Cell) string {
	if c.Node == 0 {
		return ""
	}
	return f.table(c.Obj.Type).nodes[c.Node].path
}

// Normalize implements Strategy with the shared normalize of §4.3.2/§4.3.3:
// map a reference to its innermost first field.
func (f *fieldOps) Normalize(obj *ir.Object, path ir.Path) Cell {
	if !aggregate(obj.Type) {
		return Cell{Obj: obj} // a scalar, or an untyped heap blob: a single cell
	}
	return Cell{Obj: obj, Node: f.extend(f.table(obj.Type), 0, path)}
}

// extend is normalize from node n of obj's table: normalize(obj, δ.path)
// for a candidate δ at n picks up the walk at δ instead of at the root.
func (f *fieldOps) extend(tb *leafTable, n int32, path ir.Path) int32 {
	if f.noFirstField {
		n, _ = tb.walk(n, path)
		return n
	}
	return tb.normalizeFrom(n, path)
}

// obj returns obj's entry, building it on first use.
func (f *fieldOps) obj(obj *ir.Object) objEntry {
	if e, ok := f.objs.get(obj); ok {
		return e
	}
	var e objEntry
	if !aggregate(obj.Type) {
		e.cells = f.oneCell(obj)
		e.scalar = stripArrays(obj.Type)
	} else {
		e.tb = f.table(obj.Type)
		e.cells = make([]Cell, len(e.tb.leaves))
		for i, n := range e.tb.leaves {
			e.cells[i] = Cell{Obj: obj, Node: n}
		}
	}
	*f.objs.at(obj) = e
	return e
}

// oneCell returns the one-cell slice {obj} of a scalar object, carved from
// a shared chunk instead of allocated on its own.
func (f *fieldOps) oneCell(obj *ir.Object) []Cell {
	if len(f.cellBuf) == 0 {
		f.cellBuf = make([]Cell, 256)
	}
	c := f.cellBuf[:1:1]
	f.cellBuf = f.cellBuf[1:]
	c[0] = Cell{Obj: obj}
	return c
}

// CellsOf implements Strategy: all normalized cells of an object, in layout
// order. The slice is shared and must not be modified.
func (f *fieldOps) CellsOf(obj *ir.Object) []Cell { return f.obj(obj).cells }

// scalarLookup is lookup on a scalar or untyped object: its one cell, a
// mismatch unless τ is compatible with its type.
func (f *fieldOps) scalarLookup(τ *types.Type, e objEntry) ([]Cell, bool) {
	return e.cells, e.scalar == nil || !f.compatible(τ, e.scalar)
}

// cell returns the single-cell result {obj.n}: a one-element window of the
// object's shared cell slice when n is a leaf.
func (e objEntry) cell(n int32) []Cell {
	if r := e.tb.nodes[n].leaf; r >= 0 {
		return e.cells[r : r+1 : r+1]
	}
	return []Cell{{Obj: e.cells[0].Obj, Node: n}}
}

// smear returns the cells of target's object at or after target in layout
// order (the followingFields fallback both portable instances use on a type
// mismatch): a suffix of the object's shared cell slice, the whole slice
// when target is not itself a leaf (conservative).
func (f *fieldOps) smear(target Cell) []Cell { return f.obj(target.Obj).smear(target.Node) }

func (e objEntry) smear(n int32) []Cell {
	if n != 0 {
		if r := e.tb.nodes[n].leaf; r > 0 {
			return e.cells[r:]
		}
	}
	return e.cells
}

// ExpandedSize implements Strategy: the source fields a cell stands for.
func (f *fieldOps) ExpandedSize(c Cell) int {
	t := c.Obj.Type
	if c.Node != 0 {
		t = f.table(c.Obj.Type).nodes[c.Node].typ
	}
	if t == nil {
		return leafCount(c.Obj.Type)
	}
	return leafCount(t)
}

// compatible is types.CompatibleLax(τ, t), cached per type pair when a
// record is involved (the walk over members is what costs).
func (f *fieldOps) compatible(τ, t *types.Type) bool {
	if τ == t {
		return true // a type is compatible with itself
	}
	if !aggregate(τ) && !aggregate(t) {
		return types.CompatibleLax(τ, t)
	}
	k := [2]*types.Type{τ, t}
	ok, seen := f.compat[k]
	if !seen {
		ok = types.CompatibleLax(τ, t)
		f.compat[k] = ok
	}
	return ok
}

// nodeCount is the number of cells obj's leaf table numbers, interior
// nodes included: its run of CellTable slots.
func (f *fieldOps) nodeCount(obj *ir.Object) int32 {
	if !aggregate(obj.Type) {
		return 1
	}
	return int32(len(f.table(obj.Type).nodes))
}

// lookupFn is the uncounted core of a strategy's lookup; mismatch reports
// whether the fallback smearing was used.
type lookupFn func(τ *types.Type, path ir.Path, target Cell) (cells []Cell, mismatch bool)

// Lookup implements Strategy: the instance's lookup, counted.
func (f *fieldOps) Lookup(τ *types.Type, path ir.Path, target Cell) []Cell {
	cells, mismatch := f.lk(τ, path, target)
	f.rec.recordLookup(structsInvolved(τ, target), mismatch)
	return cells
}

// Resolve implements Strategy. Unknown-extent copies (τ == nil) are not
// counted as resolve calls. The result is the instance's working buffer:
// the next Resolve call overwrites it.
func (f *fieldOps) Resolve(dst, src Cell, τ *types.Type) []Edge {
	edges, mismatch := f.resolveVia(dst, src, τ)
	if τ != nil {
		f.rec.recordResolve(structsInvolved(τ, dst, src), mismatch)
	}
	return edges
}

// resolveVia implements resolve in terms of a lookup function, as both
// portable instances define it (§4.3.2):
//
//	resolve(s.α̂, t.β̂, τ) = { ⟨γ, γ'⟩ | δ a field of τ,
//	                          γ  ∈ lookup(τ_δ?, δ, s.α̂),
//	                          γ' ∈ lookup(τ_δ?, δ, t.β̂) }
//
// δ ranges over the normalized leaves of τ so that nested structures copy
// field by field. τ == nil (a copy of unknown extent) pairs everything at or
// after each endpoint.
func (f *fieldOps) resolveVia(dst, src Cell, τ *types.Type) ([]Edge, bool) {
	if τ == nil {
		f.scratch = pairs(f.scratch[:0], f.smear(dst), f.smear(src))
		return f.scratch, true
	}
	edges := f.scratch[:0]
	mismatch := false
	var tb *leafTable
	leaves := []int32{0} // a scalar τ has one leaf, the empty path
	if aggregate(τ) {
		tb = f.table(τ)
		leaves = tb.leaves
	}
	for _, δ := range leaves {
		var path ir.Path
		if tb != nil {
			path = tb.nodes[δ].comps
		}
		ds, m1 := f.lk(τ, path, dst)
		ss, m2 := f.lk(τ, path, src)
		if m1 || m2 {
			mismatch = true
		}
		edges = pairs(edges, ds, ss)
	}
	f.scratch = edges
	return edges, mismatch
}

// pairs appends the edges ⟨d, s⟩ for every d in ds and s in ss.
func pairs(edges []Edge, ds, ss []Cell) []Edge {
	for _, d := range ds {
		for _, s := range ss {
			edges = append(edges, Edge{Dst: d, Src: s})
		}
	}
	return edges
}

// structsInvolved reports whether a lookup/resolve call "involves
// structures" for the Figure 3 instrumentation.
func structsInvolved(τ *types.Type, cells ...Cell) bool {
	if isRecordType(τ) {
		return true
	}
	for _, c := range cells {
		if objIsRecord(c.Obj) {
			return true
		}
	}
	return false
}
