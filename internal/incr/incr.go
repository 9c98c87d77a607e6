// Package incr is the incremental re-analysis subsystem: it keeps the
// solved state of one analysis run as a persistent, resumable constraint
// graph, diffs a re-submitted program against it at function granularity,
// and re-solves only the slice the edit can reach.
//
// The pipeline has three stages:
//
//  1. Partitioned fingerprinting (fingerprint.go): every function — plus a
//     pseudo-unit for global initializers — is keyed by a canonical,
//     position-independent encoding of its IR. Diff reduces an edit to the
//     set of added/removed/changed units.
//  2. Graph capture and snapshots (incr.go, snapshot.go): Capture folds a
//     completed dense solve into per-cell fact lists in first-interned
//     order; WriteSnapshot persists that state in the checked `ptrincr1`
//     container (sha256 + length header, like the store's result spill) so
//     it survives a daemon restart.
//  3. Delta solve (match.go, taint.go, resume.go): Resume matches the old
//     program's objects onto the new one, retracts the constraints of
//     changed/removed units by computing the taint closure of the cells
//     they wrote, seeds a fresh solver with the surviving facts, and runs
//     the ordinary fixpoint to re-convergence. Any situation the taint
//     proof does not cover falls back to a cold solve — counted, never
//     wrong.
//
// The correctness contract is exact: a resumed solve produces byte-identical
// results (fact dumps, TotalFacts, Figure-3 counters) to a cold solve of the
// edited program. The solver's single-fire watcher replay (core.Analyze*)
// makes those counters a pure function of (program, strategy), which is what
// lets a warm schedule reproduce them.
package incr

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// Config pins everything that affects a graph's identity: the strategy and
// ABI plus every option that changes solver output. A Resume under a config
// differing from the captured one falls back to a cold solve.
//
// Deliberately absent: timeouts, parallelism and demand budgets (they never
// change an answer), NoPrepass/TrackPeakMem (the offline prepass and set
// interner are a cold-solve-only optimization — warm resumes always run
// without them, so the knob cannot differentiate graphs), resource Limits
// (an incomplete solve is not resumable, so graphs are only captured from
// unlimited runs) and FlagMisuse (misuse records are a whole-run observable
// the delta path cannot reproduce; the facade never captures graphs for
// flagging configs).
type Config struct {
	// Strategy names the analysis instance ("common-initial-seq" when
	// empty); ABI names the layout ("lp64" when empty).
	Strategy string `json:"strategy"`
	ABI      string `json:"abi"`

	ModelMainArgs      bool `json:"model_main_args,omitempty"`
	NoLibSummaries     bool `json:"no_lib_summaries,omitempty"`
	CloneAllocWrappers bool `json:"clone_alloc_wrappers,omitempty"`
	NoPtrArithSmear    bool `json:"no_ptr_arith_smear,omitempty"`
	NoCycleElim        bool `json:"no_cycle_elim,omitempty"`
}

// Resolved returns the config with the default strategy/ABI names filled
// in — the identity a captured graph actually carries.
func (c Config) Resolved() Config { return c.withDefaults() }

// withDefaults resolves the empty strategy/ABI names so that configs
// compare by meaning, not spelling.
func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = "common-initial-seq"
	}
	if c.ABI == "" {
		c.ABI = "lp64"
	}
	return c
}

// frontend maps the config onto front-end options.
func (c Config) frontend() (frontend.Options, error) {
	var abi *layout.ABI
	switch c.withDefaults().ABI {
	case "lp64":
		abi = layout.LP64
	case "ilp32":
		abi = layout.ILP32
	case "packed1":
		abi = layout.Packed1
	default:
		return frontend.Options{}, fmt.Errorf("incr: unknown ABI %q (want lp64, ilp32 or packed1)", c.ABI)
	}
	return frontend.Options{
		ABI:                abi,
		ModelMainArgs:      c.ModelMainArgs,
		NoLibSummaries:     c.NoLibSummaries,
		CloneAllocWrappers: c.CloneAllocWrappers,
	}, nil
}

// coreOptions maps the config onto solver options. Limits stay zero: the
// incremental path only handles complete solves.
func (c Config) coreOptions() core.Options {
	return core.Options{
		NoPtrArithSmear: c.NoPtrArithSmear,
		NoCycleElim:     c.NoCycleElim,
	}
}

// strategy builds a fresh instance for the config over the given layout
// engine.
func (c Config) strategy(lay *layout.Engine) (core.Strategy, error) {
	s := metrics.NewStrategy(c.withDefaults().Strategy, lay)
	if s == nil {
		return nil, fmt.Errorf("incr: unknown strategy %q", c.Strategy)
	}
	return s, nil
}

// Graph is the persistent constraint-graph state of one completed solve:
// the sources and the IR it came from, the per-unit fingerprints,
// and every cell's final points-to set in the order the solver first
// interned the cells (which keeps resume seeding deterministic).
//
// The union-find condensation is deliberately NOT serialized — the
// materialized per-cell sets fold it in (merged members carry their
// representative's full union), and cycle condensation is re-discovered
// online. The solved graph's watcher/copy edges and per-statement rule
// work ARE part of the persistent state, but in derived form: because the
// solver's single-fire replay makes them a pure function of (program,
// final sets, strategy), the statement mirror (mirror.go) reconstructs
// them exactly from the fact lists on first use — per-statement counter
// contributions, copy-edge lists and the taint dependency index — so the
// ptrincr1 container stays small while Resume still skips the replay work
// the captured solve already performed.
type Graph struct {
	cfg     Config
	sources []frontend.Source
	prog    *ir.Program
	lay     *layout.Engine
	units   map[string]string
	order   []core.Cell
	facts   map[core.Cell][]core.Cell

	artOnce sync.Once
	art     *artifacts
	artErr  error
}

// artifacts returns the graph's mirror artifacts, building them on first
// use (one replay of the statements against the final sets, roughly the
// cost of the original solve — paid once per resident graph, not per
// Resume). Safe for concurrent use; the Graph must not be copied.
func (g *Graph) artifacts() (*artifacts, error) {
	g.artOnce.Do(func() {
		// The mirror dirties its strategy's recorder and memo, so it gets
		// a throwaway instance over the captured layout.
		strat, err := g.cfg.strategy(layout.New(g.lay.ABI()))
		if err != nil {
			g.artErr = err
			return
		}
		g.art = buildArtifacts(g.prog, strat, g.facts)
	})
	return g.art, g.artErr
}

// Config returns the configuration the graph was captured under.
func (g *Graph) Config() Config { return g.cfg }

// Sources returns the translation units the graph was captured from.
func (g *Graph) Sources() []frontend.Source { return g.sources }

// NumCells returns the number of cells holding facts.
func (g *Graph) NumCells() int { return len(g.order) }

// NumFacts returns the total number of persisted points-to facts.
func (g *Graph) NumFacts() int {
	n := 0
	for _, ts := range g.facts {
		n += len(ts)
	}
	return n
}

// Capture folds a completed solve of prog, laid out by lay, into a
// resumable Graph. The result must have reached fixpoint and must have been
// produced under cfg over exactly these sources; violations are errors, not
// fallbacks, because a miscaptured graph would poison every later Resume.
func Capture(sources []frontend.Source, cfg Config, prog *ir.Program, lay *layout.Engine, result *core.Result) (*Graph, error) {
	cfg = cfg.withDefaults()
	if result.Incomplete != nil {
		return nil, fmt.Errorf("incr: cannot capture an incomplete solve (%s)", result.Incomplete.Reason)
	}
	if name := result.Strategy.Name(); name != cfg.Strategy {
		return nil, fmt.Errorf("incr: result solved under %q, config says %q", name, cfg.Strategy)
	}
	g := &Graph{
		cfg:     cfg,
		sources: append([]frontend.Source(nil), sources...),
		prog:    prog,
		lay:     lay,
		units:   fingerprints(prog),
		facts:   make(map[core.Cell][]core.Cell),
	}
	result.Facts(func(c core.Cell, targets []core.Cell) {
		g.order = append(g.order, c)
		g.facts[c] = targets
	})
	return g, nil
}

// Analyze is the subsystem's cold path: front end plus dense solve under
// cfg. Resume falls back to it whenever a retraction cannot be proven
// safe, and tests use it as the oracle.
func Analyze(ctx context.Context, sources []frontend.Source, cfg Config) (*frontend.Result, *core.Result, error) {
	fopts, err := cfg.frontend()
	if err != nil {
		return nil, nil, err
	}
	res, err := frontend.Load(sources, fopts)
	if err != nil {
		return nil, nil, err
	}
	strat, err := cfg.strategy(res.Layout)
	if err != nil {
		return nil, nil, err
	}
	return res, core.AnalyzeContext(ctx, res.IR, strat, cfg.coreOptions()), nil
}

// Solve is Analyze followed by Capture: one call takes sources to a
// resumable Graph plus its result.
func Solve(ctx context.Context, sources []frontend.Source, cfg Config) (*Graph, *core.Result, error) {
	res, result, err := Analyze(ctx, sources, cfg)
	if err != nil {
		return nil, nil, err
	}
	if result.Incomplete != nil {
		return nil, result, fmt.Errorf("incr: solve stopped early (%s)", result.Incomplete.Reason)
	}
	g, err := Capture(sources, cfg, res.IR, res.Layout, result)
	if err != nil {
		return nil, result, err
	}
	return g, result, nil
}
