package incr

import (
	"slices"

	"repro/internal/cc/types"
	"repro/internal/core"
	"repro/internal/ir"
)

// The statement mirror replays every old statement against the old FINAL
// points-to sets, reproducing exactly the strategy calls the dense solver
// makes for it (initStmt's Copy resolution and applyRule's per-fact rule
// firings — the shapes here must stay in lockstep with core/solver.go).
// Because the solver's watcher replay is single-fire, each (statement,
// fact ∈ final set) pair fires exactly once in any schedule, so one pass
// over the final sets reproduces per statement:
//
//   - counts: the statement's exact contribution to the Figure-3 counters
//     (logical Lookup/Resolve calls — a pure function of (program,
//     strategy), not of the schedule);
//   - watched: the cells whose facts fire the statement;
//   - writes: the cells its facts and copy edges land in;
//   - edges: the copy edges it installs (attributed per statement, unlike
//     the solver's first-installer deduplication);
//
// plus one global read → write dependency index shared by every resume's
// taint closure.
//
// Taint semantics (unchanged from the original walker): a retracted
// statement's write set seeds the taint; the closure of the seeds over the
// dependency edges is the tainted set — every untainted cell's facts have a
// derivation using only retained statements, so they are members of the new
// fixpoint and safe to seed. The index deliberately includes retracted
// statements' dependency edges too: their write sides are all taint seeds
// already, so the extra edges never change the closure, and a single
// prebuilt index makes each resume's taint pass proportional to the tainted
// region instead of the whole program. Replaying against final sets
// over-approximates every intermediate state the real solve passed through
// (sets only grow), so no derivation is missed; SCC condensation needs no
// extra edges because cycle members' final sets are equal and cycle edges
// all come from the statements walked here.
//
// Skip-eligibility (resume.go) additionally uses watched/writes/edges: a
// retained statement whose watched and written cells are all untainted,
// matched and fully seeded — and whose edges map onto the new program — had
// ALL of its work performed by the captured solve, so the warm solver can
// suppress its replay, restore its edges, and carry its counts over.

// stmtArt is one statement's mirror artifact.
type stmtArt struct {
	counts  core.Recorder // Figure-3 contribution; cache fields stay zero
	watched []core.Cell
	writes  []core.Cell
	edges   []core.Edge
}

// artifacts is the per-graph mirror state, built lazily once per Graph.
type artifacts struct {
	byStmt map[*ir.Stmt]*stmtArt
	deps   map[core.Cell][]core.Cell // read → writes, all statements
	exact  bool                      // strategy emits only exact edges (skip-eligible)
}

// tainted computes the taint closure for one retraction: seeds are the
// write sets of retracted statements, closed over the dependency index.
func (a *artifacts) tainted(prog *ir.Program, retracted func(*ir.Stmt) bool) map[core.Cell]bool {
	tainted := make(map[core.Cell]bool)
	var queue []core.Cell
	add := func(c core.Cell) {
		if !tainted[c] {
			tainted[c] = true
			queue = append(queue, c)
		}
	}
	for _, st := range prog.Stmts {
		if !retracted(st) {
			continue
		}
		if art := a.byStmt[st]; art != nil {
			for _, w := range art.writes {
				add(w)
			}
		}
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range a.deps[c] {
			add(w)
		}
	}
	return tainted
}

type mirror struct {
	prog  *ir.Program
	strat core.Strategy
	pts   map[core.Cell][]core.Cell

	arts   map[*ir.Stmt]*stmtArt
	deps   map[core.Cell][]core.Cell
	depSet map[[2]core.Cell]bool

	cur      *stmtArt
	writeSet map[core.Cell]bool
	edgeSeen map[core.Edge]bool
}

// buildArtifacts runs the mirror: strat must be a fresh throwaway instance
// configured identically to the captured solve (its recorder and memo state
// get dirtied here and must never leak into a counted solve).
func buildArtifacts(prog *ir.Program, strat core.Strategy, pts map[core.Cell][]core.Cell) *artifacts {
	m := &mirror{
		prog:     prog,
		strat:    strat,
		pts:      pts,
		arts:     make(map[*ir.Stmt]*stmtArt, len(prog.Stmts)),
		deps:     make(map[core.Cell][]core.Cell),
		depSet:   make(map[[2]core.Cell]bool),
		writeSet: make(map[core.Cell]bool),
		edgeSeen: make(map[core.Edge]bool),
	}
	for _, st := range prog.Stmts {
		m.stmt(st)
	}
	return &artifacts{byStmt: m.arts, deps: m.deps, exact: core.ExactEdges(strat)}
}

// write records a cell the current statement deposits facts into.
func (m *mirror) write(c core.Cell) {
	if !m.writeSet[c] {
		m.writeSet[c] = true
		m.cur.writes = append(m.cur.writes, c)
	}
}

// dep records a read → write dependency in the global index.
func (m *mirror) dep(r, w core.Cell) {
	key := [2]core.Cell{r, w}
	if !m.depSet[key] {
		m.depSet[key] = true
		m.deps[r] = append(m.deps[r], w)
	}
}

// edge records one resolved copy edge (deduplicated per statement) along
// with its write cell and dependency.
func (m *mirror) edge(e core.Edge) {
	if !m.edgeSeen[e] {
		m.edgeSeen[e] = true
		m.cur.edges = append(m.cur.edges, e)
	}
	m.write(e.Dst)
	m.dep(e.Src, e.Dst)
}

// counterDiff extracts the logical Figure-3 counters from a before/after
// recorder pair, dropping the cache split (hit/miss attribution depends on
// memo state accumulated across statements and is not carried over).
func counterDiff(before, after core.Recorder) core.Recorder {
	var d core.Recorder
	addPure(&d, &after, 1)
	addPure(&d, &before, -1)
	return d
}

// pureCalls lists the Recorder's pure-class counters: the Figure-3 calls,
// which are what replay carries between solves.
var pureCalls = slices.DeleteFunc(slices.Clone(core.Counters), func(c core.Counter) bool {
	return c.Wave || c.Class != core.Pure
})

// addPure adds sign times src's pureCalls counters into dst.
func addPure(dst, src *core.Recorder, sign int) {
	for i := range pureCalls {
		c := &pureCalls[i] // by pointer: no per-call copy of the entry
		*c.Field(dst, nil) += sign * *c.Field(src, nil)
	}
}

// stmt mirrors the solver's constraint generation for one statement.
func (m *mirror) stmt(st *ir.Stmt) {
	switch st.Op {
	case ir.OpAddrOf, ir.OpCopy, ir.OpAddrField, ir.OpLoad, ir.OpStore,
		ir.OpMemCopy, ir.OpPtrArith, ir.OpCall:
	default:
		return
	}
	if st.Op == ir.OpStore && st.Src == nil {
		return // store of a pointer-free value: no constraints
	}
	art := &stmtArt{}
	m.cur = art
	clear(m.writeSet)
	clear(m.edgeSeen)
	norm := m.strat.Normalize
	before := *m.strat.Recorder()

	switch st.Op {
	case ir.OpAddrOf:
		m.write(norm(st.Dst, nil))

	case ir.OpCopy:
		for _, e := range m.strat.Resolve(norm(st.Dst, nil), norm(st.Src, st.Path), st.Dst.Type) {
			m.edge(e)
		}

	case ir.OpAddrField:
		w, dst := norm(st.Ptr, nil), norm(st.Dst, nil)
		art.watched = []core.Cell{w}
		m.write(dst)
		m.dep(w, dst)
		for _, tgt := range m.pts[w] {
			m.strat.Lookup(pointee(st.Ptr), st.Path, tgt)
		}

	case ir.OpLoad:
		w, dst := norm(st.Ptr, nil), norm(st.Dst, nil)
		art.watched = []core.Cell{w}
		for _, tgt := range m.pts[w] {
			for _, loc := range m.strat.Lookup(pointee(st.Ptr), nil, tgt) {
				for _, e := range m.strat.Resolve(dst, loc, st.Dst.Type) {
					m.edge(e)
					m.dep(w, e.Dst)
				}
			}
		}

	case ir.OpStore:
		τ := pointee(st.Ptr)
		if τ == nil && st.Src.Type != nil {
			τ = st.Src.Type
		}
		w, src := norm(st.Ptr, nil), norm(st.Src, nil)
		art.watched = []core.Cell{w}
		for _, tgt := range m.pts[w] {
			for _, loc := range m.strat.Lookup(τ, nil, tgt) {
				for _, e := range m.strat.Resolve(loc, src, τ) {
					m.edge(e)
					m.dep(w, e.Dst)
				}
			}
		}

	case ir.OpMemCopy:
		dp, sp := norm(st.Ptr, nil), norm(st.Src, nil)
		art.watched = []core.Cell{dp, sp}
		for _, td := range m.pts[dp] {
			for _, ts := range m.pts[sp] {
				for _, e := range m.strat.Resolve(td, ts, nil) {
					m.edge(e)
					m.dep(dp, e.Dst)
					m.dep(sp, e.Dst)
				}
			}
		}

	case ir.OpPtrArith:
		w, dst := norm(st.Src, nil), norm(st.Dst, nil)
		art.watched = []core.Cell{w}
		m.write(dst)
		m.dep(w, dst)

	case ir.OpCall:
		w := norm(st.Ptr, nil)
		art.watched = []core.Cell{w}
		for _, tgt := range m.pts[w] {
			if tgt.Obj.Kind != ir.ObjFunc || tgt.Obj.Sym == nil {
				continue
			}
			fn := m.prog.FuncOf[tgt.Obj.Sym]
			if fn == nil {
				continue
			}
			for i, arg := range st.Args {
				if arg == nil {
					continue
				}
				argCell := norm(arg, nil)
				if i < len(fn.Params) && fn.Params[i] != nil {
					p := fn.Params[i]
					for _, e := range m.strat.Resolve(norm(p, nil), argCell, p.Type) {
						m.edge(e)
						m.dep(w, e.Dst)
					}
				} else if fn.Varargs != nil {
					for _, e := range m.strat.Resolve(norm(fn.Varargs, nil), argCell, arg.Type) {
						m.edge(e)
						m.dep(w, e.Dst)
					}
				}
			}
			if fn.Retval != nil && st.Dst != nil {
				for _, e := range m.strat.Resolve(norm(st.Dst, nil), norm(fn.Retval, nil), st.Dst.Type) {
					m.edge(e)
					m.dep(w, e.Dst)
				}
			}
		}
	}

	art.counts = counterDiff(before, *m.strat.Recorder())
	m.arts[st] = art
}

// pointee mirrors the solver's pointeeType: the declared pointee of a
// pointer (or array-of-pointer) object.
func pointee(o *ir.Object) *types.Type {
	if o == nil || o.Type == nil {
		return nil
	}
	t := o.Type
	for t.Kind == types.Array {
		t = t.Elem
	}
	if t.Kind == types.Ptr {
		return t.Elem
	}
	return nil
}
