package pointsto

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// Session is the query-oriented entry point: construct once from sources
// and a Config (running the front end eagerly, so parse and type errors
// surface at construction), then ask PointsTo / MayAlias / Sets questions.
// Queries solve lazily — a PointsTo explores only the constraint subgraph
// backward-reachable from the queried variable (the demand engine of
// internal/core), and the explored slice is memoized so later queries pay
// only for what earlier ones have not covered. A query whose slice exceeds
// Config.DemandBudget falls back transparently to the exhaustive solver,
// whose Report is computed at most once and shared.
//
// A Session is safe for concurrent use. Demand queries are internally
// serialized (the slice memo is a single accumulating solver state); the
// exhaustive fallback is a singleflight with the same cancellation contract
// as the server's store: a canceled waiter does not poison the memo for
// concurrent or later callers, and only the last interested waiter actually
// stops the underlying solve.
//
// Answers are byte-identical to the exhaustive Report's: same sets, same
// formatting, regardless of which engine produced them.
type Session struct {
	cfg Config
	// sources are retained verbatim: Graph capture embeds them in the
	// snapshot so a decoded graph can re-run the front end.
	sources []Source
	prog    *ir.Program
	lay     *layout.Engine
	names   *nameTable // built on the first query, shared with s.rep

	// demandMu guards the demand engine. The engine accumulates one
	// coherent slice across queries, so queries through it are serialized.
	demandMu sync.Mutex
	demand   *core.Demand
	fellBack bool             // a budget trip routes all later queries to the full solve
	retired  core.DemandStats // counters of discarded engines, kept for Stats

	// flightMu guards the memoized exhaustive solve.
	flightMu sync.Mutex
	flight   *reportFlight
	rep      *Report

	queries    atomic.Int64
	memoHits   atomic.Int64
	fallbacks  atomic.Int64
	fullSolves atomic.Int64
}

// NewSession runs the front end over the sources and returns a Session
// ready for queries. No solving happens yet. Front-end failures return the
// usual classified *Error (ErrParse, ErrSema, ...).
func NewSession(sources []Source, cfg Config) (sess *Session, err error) {
	defer fault.Recover("analyze", &err)
	res, err := load(sources, cfg)
	if err != nil {
		return nil, err
	}
	return newSessionState(cfg, sources, res), nil
}

// newSessionState assembles a Session around an already-loaded front-end
// result (shared by NewSession and the incremental ResumeSession path). It
// keeps only the IR and the layout engine, not the AST or sema tables.
func newSessionState(cfg Config, sources []Source, res *frontend.Result) *Session {
	return &Session{
		cfg:     cfg,
		sources: append([]Source(nil), sources...),
		prog:    res.IR,
		lay:     res.Layout,
		names:   newNameTable(res.IR),
	}
}

// Strategy returns the instance the session queries under.
func (s *Session) Strategy() Strategy { return s.cfg.Strategy }

// Names returns every queryable source-level name in sorted order.
func (s *Session) Names() []string { return s.names.sorted() }

// objects resolves a name, or fails with an ErrUnknownName fault.
func (s *Session) objects(name string) ([]*ir.Object, error) {
	objs := s.names.index()[name]
	if len(objs) == 0 {
		return nil, fault.Newf(fault.KindUnknownName, "query", "", "unknown name %q", name)
	}
	return objs, nil
}

// PointsTo returns the points-to set of the named variable's base cell as
// sorted cell names, identically to Report.PointsTo. Unknown names fail
// with an error matching ErrUnknownName; cancellation of ctx mid-query
// fails with ErrCanceled and leaves the session's memo unharmed.
func (s *Session) PointsTo(ctx context.Context, name string) (targets []string, err error) {
	defer fault.Recover("query", &err)
	objs, err := s.objects(name)
	if err != nil {
		return nil, err
	}
	s.queries.Add(1)
	set, ok, err := s.demandSets(ctx, objs)
	if err != nil {
		return nil, err
	}
	if ok {
		return formatSet(unionSets(set)), nil
	}
	rep, err := s.Report(ctx)
	if err != nil {
		return nil, err
	}
	return rep.PointsTo(name), nil
}

// MayAlias reports whether the two named pointers may reference the same
// cell, identically to Report.MayAlias. Either name being unknown fails
// with ErrUnknownName.
func (s *Session) MayAlias(ctx context.Context, a, b string) (alias bool, err error) {
	defer fault.Recover("query", &err)
	aObjs, err := s.objects(a)
	if err != nil {
		return false, err
	}
	bObjs, err := s.objects(b)
	if err != nil {
		return false, err
	}
	s.queries.Add(1)
	sets, ok, err := s.demandSets(ctx, append(append([]*ir.Object(nil), aObjs...), bObjs...))
	if err != nil {
		return false, err
	}
	if ok {
		sa := unionSets(sets[:len(aObjs)])
		if len(sa) == 0 {
			return false, nil
		}
		for c := range unionSets(sets[len(aObjs):]) {
			if sa.Has(c) {
				return true, nil
			}
		}
		return false, nil
	}
	rep, err := s.Report(ctx)
	if err != nil {
		return false, err
	}
	return rep.MayAlias(a, b), nil
}

// Sets returns every named cell's points-to set; it requires the full
// fixpoint and therefore forces (and memoizes) the exhaustive solve.
func (s *Session) Sets(ctx context.Context) ([]Set, error) {
	rep, err := s.Report(ctx)
	if err != nil {
		return nil, err
	}
	return rep.Sets(), nil
}

// demandBudget converts Config.DemandBudget into a statement-activation
// cap for the program (<= 0 means uncapped).
func (s *Session) demandBudget() int {
	frac := s.cfg.DemandBudget
	if frac < 0 {
		return 0
	}
	if frac == 0 {
		frac = 0.5
	}
	b := int(frac * float64(len(s.prog.Stmts)))
	if b < 256 {
		b = 256
	}
	return b
}

// demandEligible reports whether the config allows demand answering at all.
// Limits force the exhaustive path (their partial-result contract is a
// whole-run observable) and so does misuse flagging (Misuses is a
// whole-program report a slice cannot reproduce).
func (s *Session) demandEligible() bool {
	return s.cfg.Limits == Limits{} && !s.cfg.Options.FlagMisuse
}

// demandSets answers objs through the demand engine: one points-to set per
// object, in input order. ok=false (with nil error) means the caller must
// use the exhaustive path — demand is ineligible or this query tripped the
// budget. A cancellation poisons only the in-progress slice: the engine is
// discarded (its counters folded into retired) and the next query rebuilds
// from scratch, so earlier memoized answers are never served half-updated.
func (s *Session) demandSets(ctx context.Context, objs []*ir.Object) ([]core.CellSet, bool, error) {
	if !s.demandEligible() {
		return nil, false, nil
	}
	s.demandMu.Lock()
	defer s.demandMu.Unlock()
	if s.fellBack {
		return nil, false, nil
	}
	if s.demand == nil {
		strat := newStrategy(s.cfg.Strategy, layout.New(s.lay.ABI()))
		s.demand = core.NewDemand(s.prog, strat, coreOptions(s.cfg), s.demandBudget())
	}
	before := s.demand.Stats().MemoHits
	err := s.demand.Query(ctx, objs...)
	switch {
	case err == nil:
		if s.demand.Stats().MemoHits > before {
			s.memoHits.Add(1)
		}
		out := make([]core.CellSet, len(objs))
		for i, o := range objs {
			out[i] = s.demand.PointsToObj(o)
		}
		return out, true, nil
	case errors.Is(err, core.ErrDemandBudget):
		s.discardDemandLocked()
		s.fellBack = true
		s.fallbacks.Add(1)
		return nil, false, nil
	default:
		// Canceled (or an unexpected solver stop): the half-propagated
		// slice is unusable, so drop the engine rather than poison the memo.
		s.discardDemandLocked()
		return nil, false, err
	}
}

// discardDemandLocked retires the current engine, folding its counters into
// the session totals. Caller holds demandMu.
func (s *Session) discardDemandLocked() {
	if s.demand == nil {
		return
	}
	st := s.demand.Stats()
	s.retired.Queries += st.Queries
	s.retired.MemoHits += st.MemoHits
	s.retired.ObjectsDemanded += st.ObjectsDemanded
	s.retired.StmtsActivated += st.StmtsActivated
	s.retired.CellsVisited += st.CellsVisited
	s.demand = nil
}

// unionSets unions cell sets (returning the single set unchanged).
func unionSets(sets []core.CellSet) core.CellSet {
	if len(sets) == 1 {
		return sets[0]
	}
	union := make(core.CellSet)
	for _, set := range sets {
		for c := range set {
			union.Add(c)
		}
	}
	return union
}

// formatSet renders a cell set exactly like Report.PointsTo: sorted cell
// strings, nil when empty.
func formatSet(set core.CellSet) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for _, c := range set.Sorted() {
		out = append(out, c.String())
	}
	return out
}

// reportFlight is the in-flight exhaustive solve, shared by every caller
// that needs it. Same design as the store's singleflight: waiters are
// counted, a leaving waiter only cancels the solve when it is the last one
// interested, and a canceled flight is not memoized.
type reportFlight struct {
	done    chan struct{}
	rep     *Report
	err     error
	waiters int
	cancel  context.CancelFunc
	// abandoned marks a flight stopped because its last waiter left (as
	// opposed to its own Config.Timeout expiring): joiners who raced the
	// stop should retry, while a timed-out flight's outcome is final.
	abandoned bool
}

// Report returns the exhaustive full-fixpoint Report, solving it on first
// use and memoizing it for the session's lifetime (including limit-tripped
// incomplete reports — those are the configured answer, see Config.Limits).
// On cancellation the partial report is returned alongside an error
// matching ErrCanceled, and the memo stays empty: the next caller solves
// afresh.
func (s *Session) Report(ctx context.Context) (rep *Report, err error) {
	defer fault.Recover("solve", &err)
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		s.flightMu.Lock()
		if s.rep != nil {
			rep := s.rep
			s.flightMu.Unlock()
			return rep, nil
		}
		f := s.flight
		if f == nil {
			// cfg.Timeout binds the solve itself; the flight's base context
			// is Background so one caller's cancellation cannot abort the
			// solve other waiters still want. Always cancelable (not
			// cfg.context, whose no-timeout cancel is a no-op): the last
			// leaving waiter must be able to stop the solve.
			var fctx context.Context
			var cancel context.CancelFunc
			if s.cfg.Timeout > 0 {
				fctx, cancel = context.WithTimeout(context.Background(), s.cfg.Timeout)
			} else {
				fctx, cancel = context.WithCancel(context.Background())
			}
			f = &reportFlight{done: make(chan struct{}), cancel: cancel, waiters: 1}
			s.flight = f
			s.flightMu.Unlock()
			go s.runFlight(fctx, f)
		} else {
			f.waiters++
			s.flightMu.Unlock()
		}
		rep, err, retry := s.awaitFlight(ctx, f)
		if retry {
			continue
		}
		return rep, err
	}
}

// runFlight performs the exhaustive solve and publishes the outcome.
func (s *Session) runFlight(fctx context.Context, f *reportFlight) {
	defer f.cancel()
	func() {
		defer fault.Recover("solve", &f.err)
		rep := solve(fctx, s.prog, s.lay, s.cfg, s.names)
		f.rep = rep
		if stop := rep.result.Incomplete; stop != nil && stop.Canceled() {
			f.err = stop.AsError()
		}
	}()
	s.flightMu.Lock()
	if f.err == nil && f.rep != nil {
		s.rep = f.rep
		s.fullSolves.Add(1)
	}
	s.flight = nil
	s.flightMu.Unlock()
	close(f.done)
}

// awaitFlight waits for the flight or for ctx, whichever ends first. retry
// is true when the flight died of someone else's cancellation while our
// context is still live — the caller should start a fresh solve.
func (s *Session) awaitFlight(ctx context.Context, f *reportFlight) (*Report, error, bool) {
	select {
	case <-f.done:
		s.flightMu.Lock()
		abandoned := f.abandoned
		s.flightMu.Unlock()
		if abandoned && errors.Is(f.err, fault.ErrCanceled) && ctx.Err() == nil {
			return nil, nil, true
		}
		return f.rep, f.err, false
	case <-ctx.Done():
		s.flightMu.Lock()
		f.waiters--
		last := f.waiters == 0
		if last {
			f.abandoned = true
		}
		s.flightMu.Unlock()
		if last {
			// Nobody else wants the solve: stop it and hand our caller the
			// partial report, preserving AnalyzeContext's contract.
			f.cancel()
			<-f.done
			return f.rep, f.err, false
		}
		return nil, fault.New(fault.KindCanceled, "solve", "", ctx.Err()), false
	}
}

// SessionStats counts a session's query traffic and the demand engine's
// cumulative slice work (across engine rebuilds).
type SessionStats struct {
	// Queries counts PointsTo and MayAlias calls that resolved their
	// names; MemoHits counts those fully answered by previously explored
	// slices; Fallbacks counts budget trips that rerouted the session to
	// the exhaustive solver; FullSolves counts completed exhaustive solves
	// (0 or 1 — the Report is memoized).
	Queries    int64
	MemoHits   int64
	Fallbacks  int64
	FullSolves int64
	// ObjectsDemanded / StmtsActivated / CellsVisited size the union of
	// all explored slices; compare CellsVisited against the full solve's
	// cell count for the slice-vs-program ratio.
	ObjectsDemanded int
	StmtsActivated  int
	CellsVisited    int
}

// Stats returns the session's counters. Safe to call concurrently with
// queries.
func (s *Session) Stats() SessionStats {
	st := SessionStats{
		Queries:    s.queries.Load(),
		MemoHits:   s.memoHits.Load(),
		Fallbacks:  s.fallbacks.Load(),
		FullSolves: s.fullSolves.Load(),
	}
	s.demandMu.Lock()
	agg := s.retired
	if s.demand != nil {
		d := s.demand.Stats()
		agg.ObjectsDemanded += d.ObjectsDemanded
		agg.StmtsActivated += d.StmtsActivated
		agg.CellsVisited += d.CellsVisited
	}
	s.demandMu.Unlock()
	st.ObjectsDemanded = agg.ObjectsDemanded
	st.StmtsActivated = agg.StmtsActivated
	st.CellsVisited = agg.CellsVisited
	return st
}
