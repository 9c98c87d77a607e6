package pointsto

// Incremental re-analysis: this file adapts the internal/incr subsystem to
// the facade's vocabulary. A solved Session can be captured as a Graph — a
// persistent constraint graph that serializes through WriteSnapshot and
// survives a restart — and a Graph can warm-start the analysis of an edited
// program via ResumeSession or Session.Update. Warm answers are
// byte-identical to cold ones; when the delta path's preconditions fail it
// falls back to a cold solve and says so in ResumeInfo, never returning a
// different answer.
//
// Graph identity: a graph is only valid for resuming configs equal to the
// one it was captured under. Strategy, ABI, and the result-changing Options
// (ModelMainArgs, NoLibSummaries, CloneAllocWrappers, NoPtrArithSmear,
// NoCycleElim) all participate in that identity; Timeout,
// Config.Parallelism, Options.Parallelism and DemandBudget do not (they
// never change an answer).
// Configs carrying Limits or FlagMisuse are not resumable at all — an
// incomplete solve cannot be captured, and misuse records are a whole-run
// observable the delta path cannot reproduce.

import (
	"context"
	"errors"
	"io"

	"repro/internal/fault"
	"repro/internal/frontend"
	"repro/internal/incr"
)

// ErrNotResumable reports a Config the incremental path cannot serve:
// resource Limits or FlagMisuse are set. Such configs always solve cold.
var ErrNotResumable = errors.New("pointsto: config is not resumable (Limits or FlagMisuse set)")

// Graph is a persistent constraint graph: the solved state of one complete
// analysis run, diffable against edited sources and resumable via
// ResumeSession. Graphs are immutable and safe for concurrent use.
type Graph struct {
	g *incr.Graph
}

// NumCells returns the number of cells holding facts.
func (g *Graph) NumCells() int { return g.g.NumCells() }

// NumFacts returns the number of persisted points-to facts.
func (g *Graph) NumFacts() int { return g.g.NumFacts() }

// WriteSnapshot serializes the graph in the checked ptrincr1 container
// (sha256 + length header), restoring through ReadGraphSnapshot.
func (g *Graph) WriteSnapshot(w io.Writer) error { return g.g.WriteSnapshot(w) }

// ReadGraphSnapshot restores a Graph written by WriteSnapshot. Corruption
// in any form — truncation, bit flips, semantic inconsistencies — fails
// with an error matching IsCorruptSnapshot; such files should be
// quarantined, not retried.
func ReadGraphSnapshot(r io.Reader) (*Graph, error) {
	g, err := incr.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// IsCorruptSnapshot reports whether err marks a snapshot that failed
// verification (as opposed to an I/O error).
func IsCorruptSnapshot(err error) bool {
	var ce *incr.CorruptError
	return errors.As(err, &ce)
}

// ResumeInfo describes what one warm resume did; it mirrors incr.Stats.
type ResumeInfo struct {
	// Outcome is "resumed" for a warm delta solve, "cold" for a fallback.
	// FallbackReason says why a fallback happened ("config-mismatch",
	// "match-conflict", "config-ineligible"); empty on the warm path.
	Outcome        string
	FallbackReason string

	// UnitsAdded/Removed/Changed size the function-level delta;
	// StmtsRetracted counts old statements withdrawn with them.
	UnitsAdded, UnitsRemoved, UnitsChanged int
	StmtsRetracted                         int

	// CellsTainted counts cells whose facts the retraction reached (those
	// re-derive from scratch); CellsSeeded/FactsSeeded count the state
	// carried over; FactsDropped counts facts whose objects have no
	// counterpart in the edited program.
	CellsTainted int
	CellsSeeded  int
	FactsSeeded  int
	FactsDropped int

	// StmtsSkipped counts retained statements whose rule firings the
	// captured solve already performed in full — the warm solver restores
	// their EdgesRestored copy edges and carries their counter
	// contributions instead of replaying them.
	StmtsSkipped  int
	EdgesRestored int
}

func resumeInfo(st *incr.Stats) *ResumeInfo {
	return &ResumeInfo{
		Outcome:        st.Outcome,
		FallbackReason: st.FallbackReason,
		UnitsAdded:     st.UnitsAdded,
		UnitsRemoved:   st.UnitsRemoved,
		UnitsChanged:   st.UnitsChanged,
		StmtsRetracted: st.StmtsRetracted,
		CellsTainted:   st.CellsTainted,
		CellsSeeded:    st.CellsSeeded,
		FactsSeeded:    st.FactsSeeded,
		FactsDropped:   st.FactsDropped,
		StmtsSkipped:   st.StmtsSkipped,
		EdgesRestored:  st.EdgesRestored,
	}
}

// incrConfig maps a facade Config onto the subsystem's; ok is false when
// the config is not resumable (Limits or FlagMisuse).
func incrConfig(cfg Config) (incr.Config, bool) {
	if cfg.Limits != (Limits{}) || cfg.Options.FlagMisuse {
		return incr.Config{}, false
	}
	return incr.Config{
		Strategy:           cfg.Strategy.String(),
		ABI:                cfg.ABI,
		ModelMainArgs:      cfg.Options.ModelMainArgs,
		NoLibSummaries:     cfg.Options.NoLibSummaries,
		CloneAllocWrappers: cfg.Options.CloneAllocWrappers,
		NoPtrArithSmear:    cfg.Options.NoPtrArithSmear,
		NoCycleElim:        cfg.Options.NoCycleElim,
	}, true
}

// Resumable reports whether the config can ride the incremental path at
// all. False means every Graph/Update call for it solves cold.
func (cfg Config) Resumable() bool {
	_, ok := incrConfig(cfg)
	return ok
}

func frontendSources(sources []Source) []frontend.Source {
	out := make([]frontend.Source, len(sources))
	for i, s := range sources {
		out[i] = frontend.Source{Name: s.Name, Text: s.Text}
	}
	return out
}

// Graph captures the session's solved state as a persistent constraint
// graph, forcing (and memoizing) the exhaustive solve first if no complete
// report exists yet. Fails with ErrNotResumable for configs the incremental
// path cannot serve.
func (s *Session) Graph(ctx context.Context) (g *Graph, err error) {
	defer fault.Recover("solve", &err)
	icfg, ok := incrConfig(s.cfg)
	if !ok {
		return nil, ErrNotResumable
	}
	rep, err := s.Report(ctx)
	if err != nil {
		return nil, err
	}
	ig, err := incr.Capture(frontendSources(s.sources), icfg, s.prog, s.lay, rep.result)
	if err != nil {
		return nil, err
	}
	return &Graph{g: ig}, nil
}

// ResumeSession analyzes sources warm against a captured graph: the delta
// solve retracts what the edit invalidated, seeds the surviving facts, and
// re-converges. The returned Session already holds its complete Report (no
// further solving needed), and its answers are byte-identical to a cold
// session's. A non-resumable cfg, a cfg differing from the graph's, or an
// inconsistent object match all fall back to a cold solve — reported in
// ResumeInfo, never wrong. Cancellation mid-solve fails with ErrCanceled.
func ResumeSession(ctx context.Context, g *Graph, sources []Source, cfg Config) (sess *Session, info *ResumeInfo, err error) {
	defer fault.Recover("analyze", &err)
	if ctx == nil {
		ctx = context.Background()
	}
	icfg, ok := incrConfig(cfg)
	if !ok {
		s, err := NewSession(sources, cfg)
		if err != nil {
			return nil, nil, err
		}
		return s, &ResumeInfo{Outcome: "cold", FallbackReason: "config-ineligible"}, nil
	}
	res, result, stats, err := incr.Resume(ctx, g.g, frontendSources(sources), icfg)
	if err != nil {
		return nil, nil, err
	}
	if stop := result.Incomplete; stop != nil {
		// No Limits ride the incremental path, so the only early stop is
		// cancellation; the partial state is not worth a session.
		return nil, nil, stop.AsError()
	}
	s := newSessionState(cfg, sources, res)
	s.rep = &Report{strategy: cfg.Strategy, prog: s.prog, result: result, names: s.names}
	return s, resumeInfo(stats), nil
}

// Update re-analyzes an edited program warm: it captures this session's
// solved graph (forcing the exhaustive solve if needed) and resumes it over
// newSources, returning a fresh solved Session for the edited program. The
// receiver stays valid and continues answering for the old sources.
// Non-resumable configs degrade to a cold NewSession, reported as a
// "config-ineligible" fallback.
func (s *Session) Update(newSources []Source) (*Session, *ResumeInfo, error) {
	return s.UpdateContext(context.Background(), newSources)
}

// UpdateContext is Update under a context; canceling it stops whichever
// solve (capture or resume) is running.
func (s *Session) UpdateContext(ctx context.Context, newSources []Source) (*Session, *ResumeInfo, error) {
	g, err := s.Graph(ctx)
	if errors.Is(err, ErrNotResumable) {
		ns, nerr := NewSession(newSources, s.cfg)
		if nerr != nil {
			return nil, nil, nerr
		}
		return ns, &ResumeInfo{Outcome: "cold", FallbackReason: "config-ineligible"}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	return ResumeSession(ctx, g, newSources, s.cfg)
}
