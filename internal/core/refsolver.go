package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/ir"
)

// This file preserves the original map-based fixpoint (points-to sets as
// map[Cell]struct{}, delta lists as []Cell) exactly as it ran before the
// dense CellID/Bits rewrite in solver.go. It is the differential-testing
// oracle: AnalyzeReference must produce byte-identical SortedCells output,
// fact counts and Figure-3 instrumentation to AnalyzeWith on every program,
// which the corpus-wide test in dense_diff_test.go enforces. It is not used
// on any production path.

// AnalyzeReference runs the retained map-based solver. Results, resource
// limits and instrumentation behave identically to AnalyzeWith; only the
// solve's internal representation (and therefore speed) differs. After the
// solve's clock stops, the facts are handed back in the dense form every
// Result holds.
func AnalyzeReference(prog *ir.Program, strat Strategy, opts Options) *Result {
	s := &refSolver{
		limits:   opts.Limits,
		prog:     prog,
		strat:    strat,
		opts:     opts,
		pts:      make(map[Cell]CellSet),
		factObjs: make(map[*ir.Object][]Cell),
		edgeSet:  make(map[Edge]bool),
		edgeIdx:  make(map[*ir.Object][]Edge),
		watchers: make(map[Cell][]watch),
		bound:    make(map[callBinding]bool),
	}
	if opts.UseUnknown {
		s.unknown = &ir.Object{ID: -1, Name: "<unknown>", Kind: ir.ObjVar}
	}
	start := time.Now()
	s.run()
	res := &Result{
		Strategy:   strat,
		Program:    prog,
		table:      NewCellTable(),
		Duration:   time.Since(start),
		Steps:      s.steps,
		Incomplete: s.stop,
		Misuses:    s.misuses,
	}
	for c, set := range s.pts {
		res.table.ID(c)
		for t := range set {
			res.table.ID(t)
		}
	}
	res.dense = make([]Bits, res.table.Len())
	for c, set := range s.pts {
		b := &res.dense[res.table.ID(c)]
		for t := range set {
			b.Add(res.table.ID(t))
		}
	}
	return res
}

// memPair identifies one (destination target, source target) pair of a
// memcopy statement. Both pointer operands watch their cells, so without
// dedup a pair would be resolved once or twice depending on the order the
// two facts reach the worklist; resolving each pair exactly once keeps the
// instrumentation counts independent of the propagation schedule.
type memPair struct {
	stmt     *ir.Stmt
	dst, src Cell
}

type refSolver struct {
	prog  *ir.Program
	strat Strategy
	opts  Options

	limits Limits
	steps  int
	nfacts int
	stop   *Stop

	unknown *ir.Object
	misuses []Misuse
	flagged map[*ir.Stmt]bool

	pts      map[Cell]CellSet
	factObjs map[*ir.Object][]Cell

	edgeSet map[Edge]bool
	edgeIdx map[*ir.Object][]Edge

	watchers map[Cell][]watch
	bound    map[callBinding]bool
	memDone  map[memPair]bool

	delta map[Cell][]Cell
	dirty []Cell
}

func (s *refSolver) norm(obj *ir.Object, path ir.Path) Cell {
	return s.strat.Normalize(obj, path)
}

func (s *refSolver) run() {
	for _, st := range s.prog.Stmts {
		if s.stop != nil {
			return
		}
		s.initStmt(st)
	}
	for len(s.dirty) > 0 {
		if s.stop != nil {
			return
		}
		if s.limits.MaxSteps > 0 && s.steps >= s.limits.MaxSteps {
			s.abort(StopMaxSteps, s.limits.MaxSteps, nil)
			return
		}
		s.steps++
		c := s.dirty[len(s.dirty)-1]
		s.dirty = s.dirty[:len(s.dirty)-1]
		s.drain(c)
	}
}

func (s *refSolver) abort(reason StopReason, limit int, err error) {
	if s.stop != nil {
		return
	}
	s.stop = &Stop{
		Reason: reason,
		Steps:  s.steps,
		Facts:  s.nfacts,
		Cells:  len(s.pts),
		Limit:  limit,
		Err:    err,
	}
}

func (s *refSolver) initStmt(st *ir.Stmt) {
	switch st.Op {
	case ir.OpAddrOf:
		why := ""
		if traceCell != "" {
			why = "addrof " + st.String()
		}
		s.addFactWhy(s.norm(st.Dst, nil), s.norm(st.Src, st.Path), why)

	case ir.OpCopy:
		dst := s.norm(st.Dst, nil)
		src := s.norm(st.Src, st.Path)
		for _, e := range s.strat.Resolve(dst, src, st.Dst.Type) {
			s.addEdge(e)
		}

	case ir.OpAddrField, ir.OpLoad:
		s.watch(s.norm(st.Ptr, nil), st, 0)

	case ir.OpStore:
		if st.Src == nil {
			return
		}
		s.watch(s.norm(st.Ptr, nil), st, 0)

	case ir.OpMemCopy:
		s.watch(s.norm(st.Ptr, nil), st, 0)
		s.watch(s.norm(st.Src, nil), st, 1)

	case ir.OpPtrArith:
		s.watch(s.norm(st.Src, nil), st, 0)

	case ir.OpCall:
		s.watch(s.norm(st.Ptr, nil), st, 0)
	}
}

// watch registers the statement and replays existing facts at the cell.
// Like the dense solver's watch, the replay is single-fire: facts still
// pending in the cell's delta fire at the coming drain, so replaying them
// here would double-fire. The replay set is snapshotted before any rule
// runs — rules fired reentrantly may grow both pts[c] and delta[c].
func (s *refSolver) watch(c Cell, st *ir.Stmt, role int) {
	s.watchers[c] = append(s.watchers[c], watch{stmt: st, role: role})
	set, ok := s.pts[c]
	if !ok {
		return
	}
	pend := s.delta[c]
	replay := make([]Cell, 0, len(set))
	for tgt := range set {
		if !slices.Contains(pend, tgt) {
			replay = append(replay, tgt)
		}
	}
	for _, tgt := range replay {
		s.applyRule(watch{stmt: st, role: role}, tgt)
	}
}

func (s *refSolver) addFactWhy(c, tgt Cell, why string) {
	if traceCell != "" && strings.Contains(c.String(), traceCell) {
		fmt.Printf("TRACE %s += %s   [%s]\n", c, tgt, why)
	}
	s.addFact(c, tgt)
}

func (s *refSolver) addFact(c, tgt Cell) {
	if s.stop != nil {
		return
	}
	set, ok := s.pts[c]
	if !ok {
		if s.limits.MaxCells > 0 && len(s.pts) >= s.limits.MaxCells {
			s.abort(StopMaxCells, s.limits.MaxCells, nil)
			return
		}
		set = make(CellSet)
		s.pts[c] = set
	}
	if !set.Add(tgt) {
		return
	}
	s.nfacts++
	if s.limits.MaxFacts > 0 && s.nfacts >= s.limits.MaxFacts {
		s.abort(StopMaxFacts, s.limits.MaxFacts, nil)
		// The fact that tripped the limit stays recorded (it is sound);
		// only propagation of it is skipped.
		return
	}
	if len(set) == 1 {
		s.factObjs[c.Obj] = append(s.factObjs[c.Obj], c)
	}
	if s.delta == nil {
		s.delta = make(map[Cell][]Cell)
	}
	pend := s.delta[c]
	if len(pend) == 0 {
		s.dirty = append(s.dirty, c)
	}
	s.delta[c] = append(pend, tgt)
}

func (s *refSolver) drain(c Cell) {
	batch := s.delta[c]
	if len(batch) == 0 {
		return
	}
	s.delta[c] = nil
	for _, e := range s.edgeIdx[c.Obj] {
		if dst, ok := s.strat.PropagateEdge(e, c); ok {
			why := ""
			if traceCell != "" {
				why = "edge " + e.String()
			}
			for _, tgt := range batch {
				s.addFactWhy(dst, tgt, why)
			}
		}
	}
	for _, w := range s.watchers[c] {
		for _, tgt := range batch {
			s.applyRule(w, tgt)
		}
	}
}

func (s *refSolver) addEdge(e Edge) {
	if s.edgeSet[e] {
		return
	}
	s.edgeSet[e] = true
	s.edgeIdx[e.Src.Obj] = append(s.edgeIdx[e.Src.Obj], e)
	for _, c := range s.factObjs[e.Src.Obj] {
		if dst, ok := s.strat.PropagateEdge(e, c); ok {
			for tgt := range s.pts[c] {
				s.addFact(dst, tgt)
			}
		}
	}
}

func (s *refSolver) memCopy(st *ir.Stmt, dst, src Cell) {
	key := memPair{stmt: st, dst: dst, src: src}
	if s.memDone[key] {
		return
	}
	if s.memDone == nil {
		s.memDone = make(map[memPair]bool)
	}
	s.memDone[key] = true
	for _, e := range s.strat.Resolve(dst, src, nil) {
		s.addEdge(e)
	}
}

func (s *refSolver) applyRule(w watch, tgt Cell) {
	st := w.stmt
	if s.unknown != nil && tgt.Obj == s.unknown {
		switch st.Op {
		case ir.OpAddrField, ir.OpLoad, ir.OpStore, ir.OpMemCopy, ir.OpCall:
			if s.flagged == nil {
				s.flagged = make(map[*ir.Stmt]bool)
			}
			if !s.flagged[st] {
				s.flagged[st] = true
				ptr := ""
				if st.Ptr != nil {
					ptr = st.Ptr.Name
				}
				s.misuses = append(s.misuses, Misuse{Pos: st.Pos, Stmt: st.String(), Ptr: ptr})
			}
			return
		}
	}
	switch st.Op {
	case ir.OpAddrField:
		dst := s.norm(st.Dst, nil)
		why := ""
		if traceCell != "" {
			why = "addrfield " + st.String()
		}
		for _, c := range s.strat.Lookup(pointeeType(st.Ptr), st.Path, tgt) {
			s.addFactWhy(dst, c, why)
		}

	case ir.OpLoad:
		dst := s.norm(st.Dst, nil)
		for _, loc := range s.strat.Lookup(pointeeType(st.Ptr), nil, tgt) {
			for _, e := range s.strat.Resolve(dst, loc, st.Dst.Type) {
				s.addEdge(e)
			}
		}

	case ir.OpStore:
		τ := pointeeType(st.Ptr)
		if τ == nil && st.Src.Type != nil {
			τ = st.Src.Type
		}
		src := s.norm(st.Src, nil)
		for _, loc := range s.strat.Lookup(τ, nil, tgt) {
			for _, e := range s.strat.Resolve(loc, src, τ) {
				s.addEdge(e)
			}
		}

	case ir.OpMemCopy:
		if w.role == 0 {
			for src := range s.pts[s.norm(st.Src, nil)] {
				s.memCopy(st, tgt, src)
			}
		} else {
			for dst := range s.pts[s.norm(st.Ptr, nil)] {
				s.memCopy(st, dst, tgt)
			}
		}

	case ir.OpPtrArith:
		dst := s.norm(st.Dst, nil)
		s.addFact(dst, tgt)
		if !s.opts.NoPtrArithSmear {
			for _, c := range s.strat.CellsOf(tgt.Obj) {
				s.addFact(dst, c)
			}
		}
		if s.unknown != nil {
			s.addFact(dst, s.norm(s.unknown, nil))
		}

	case ir.OpCall:
		fn := tgt.Obj.Fn
		if fn == nil {
			return
		}
		key := callBinding{stmt: st, fn: tgt.Obj}
		if s.bound[key] {
			return
		}
		s.bound[key] = true
		for i, arg := range st.Args {
			if arg == nil {
				continue
			}
			argCell := s.norm(arg, nil)
			if i < len(fn.Params) && fn.Params[i] != nil {
				p := fn.Params[i]
				for _, e := range s.strat.Resolve(s.norm(p, nil), argCell, p.Type) {
					s.addEdge(e)
				}
			} else if fn.Varargs != nil {
				for _, e := range s.strat.Resolve(s.norm(fn.Varargs, nil), argCell, arg.Type) {
					s.addEdge(e)
				}
			}
		}
		if fn.Retval != nil && st.Dst != nil {
			for _, e := range s.strat.Resolve(s.norm(st.Dst, nil), s.norm(fn.Retval, nil), st.Dst.Type) {
				s.addEdge(e)
			}
		}
	}
}
