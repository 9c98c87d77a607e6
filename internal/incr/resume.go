package incr

import (
	"context"
	"time"

	"repro/internal/cc/types"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// Stats describes what one Resume call did.
type Stats struct {
	// Outcome is "resumed" for a warm delta solve and "cold" for a
	// fallback; FallbackReason says why ("config-mismatch",
	// "match-conflict") and is empty on the warm path.
	Outcome        string
	FallbackReason string

	// Unit-level delta sizes, and the number of old statements retracted
	// (those of changed and removed units).
	UnitsAdded, UnitsRemoved, UnitsChanged int
	StmtsRetracted                         int

	// CellsTainted counts cells the retraction reached; their facts are
	// re-derived instead of seeded. CellsSeeded/FactsSeeded count the
	// carried-over state. FactsDropped counts facts discarded because
	// their target object has no counterpart in the new program (the
	// conservative leg of matching — dropping only shrinks the seed).
	CellsTainted int
	CellsSeeded  int
	FactsSeeded  int
	FactsDropped int

	// Replay elision: StmtsSkipped counts retained statements whose rule
	// firings the captured solve already performed in full — their
	// watcher replay is suppressed, their EdgesRestored copy edges are
	// pre-installed, and their Figure-3 counter contributions are carried
	// over from the capture-time statement mirror instead of being
	// recomputed. Zero under the Offsets instance (range edges disable
	// elision) — the resume is then a plain seeded solve.
	StmtsSkipped  int
	EdgesRestored int

	// Phase wall times: ParseTime covers the front end on the new sources
	// (work a cold solve pays identically). DecodeTime covers the mirror
	// artifact build — replaying the captured statements against the final
	// sets to reconstruct copy edges, counters and the taint index. It is
	// memoized per resident Graph, so only the first Resume against a graph
	// pays it (a snapshot restored from disk always does); later resumes
	// see ~zero. ConvergeTime covers the rest — fingerprint diff, object
	// match, taint closure, seed construction and the delta solve — the
	// per-edit marginal cost, and what `ptrbench -incr` compares against a
	// cold solve. All three are zero on fallback paths.
	ParseTime    time.Duration
	DecodeTime   time.Duration
	ConvergeTime time.Duration
}

// mapCell rebinds an old-program cell onto the new program through the
// object match, preserving the selector; a field path the new object's type
// does not have makes the cell unmappable.
func mapCell(m *match, c core.Cell) (core.Cell, bool) {
	nobj, ok := m.fwd[c.Obj]
	if !ok {
		return core.Cell{}, false
	}
	nc := core.Cell{Obj: nobj, Off: c.Off, ByOff: c.ByOff}
	if c.Node != 0 {
		k := [2]*types.Type{c.Obj.Type, nobj.Type}
		nodes, ok := m.nodes[k]
		if !ok {
			nodes = core.NodeMap(k[0], k[1])
			m.nodes[k] = nodes
		}
		if nc.Node = nodes[c.Node]; nc.Node < 0 {
			return core.Cell{}, false
		}
	}
	return nc, true
}

// Resume re-analyzes newSources warm: it diffs the new program against the
// captured graph, retracts the constraints of changed/removed units via the
// taint closure, seeds a fresh solver with every surviving fact, and runs
// the fixpoint over what remains. Retained statements whose inputs and
// outputs are wholly untainted are not even replayed — their copy edges are
// restored from the capture-time statement mirror and their counter
// contributions carried over — so the warm solve's work is proportional to
// the edit's reach, not the program. The result is byte-identical to a cold
// solve of newSources — seeded facts are proven members of the new
// fixpoint, and the solver's single-fire replay makes the instrumentation
// schedule-independent. When the warm path's preconditions fail (config
// mismatch, an inconsistent object match), Resume falls back to the cold
// solve and says so in Stats rather than returning a wrong answer.
//
// Front-end failures on newSources are returned as errors (a cold solve
// would fail identically).
func Resume(ctx context.Context, g *Graph, newSources []frontend.Source, cfg Config) (*frontend.Result, *core.Result, *Stats, error) {
	cfg = cfg.withDefaults()
	if cfg != g.cfg {
		return fallback(ctx, newSources, cfg, &Stats{FallbackReason: "config-mismatch"})
	}
	fopts, err := cfg.frontend()
	if err != nil {
		return nil, nil, nil, err
	}
	parseStart := time.Now()
	newRes, err := frontend.Load(newSources, fopts)
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()

	d := diffUnits(g.units, fingerprints(newRes.IR))
	stats := &Stats{
		UnitsAdded:   len(d.Added),
		UnitsRemoved: len(d.Removed),
		UnitsChanged: len(d.Changed),
		ParseTime:    start.Sub(parseStart),
	}

	m, err := buildMatch(g.prog, newRes.IR, d)
	if err != nil {
		stats.FallbackReason = "match-conflict"
		return fallbackLoaded(ctx, newRes, cfg, stats)
	}

	decodeStart := time.Now()
	arts, err := g.artifacts()
	if err != nil {
		return nil, nil, nil, err
	}
	stats.DecodeTime = time.Since(decodeStart)
	dirty := d.dirty()
	retracted := func(st *ir.Stmt) bool { return dirty[unitOf(st)] }
	for _, st := range g.prog.Stmts {
		if retracted(st) {
			stats.StmtsRetracted++
		}
	}
	tainted := arts.tainted(g.prog, retracted)
	stats.CellsTainted = len(tainted)

	// Seed construction. ineligible marks old cells whose final set cannot
	// be carried over intact — tainted, unmatched, or seeded with dropped
	// targets — which is exactly what disqualifies a statement touching
	// them from replay elision below.
	ineligible := tainted
	seeds := make([]core.SeedFact, 0, len(g.order))
	backing := make([]core.Cell, 0, g.NumFacts()) // one arena for every seed's targets
	for _, c := range g.order {
		if tainted[c] {
			continue
		}
		nc, ok := mapCell(m, c)
		if !ok {
			ineligible[c] = true
			stats.FactsDropped += len(g.facts[c])
			continue
		}
		old := g.facts[c]
		from := len(backing)
		for _, tc := range old {
			nt, ok := mapCell(m, tc)
			if !ok {
				stats.FactsDropped++
				continue
			}
			backing = append(backing, nt)
		}
		targets := backing[from:len(backing):len(backing)]
		if len(targets) < len(old) {
			ineligible[c] = true
		}
		if len(targets) == 0 {
			continue
		}
		seeds = append(seeds, core.SeedFact{Cell: nc, Targets: targets})
		stats.CellsSeeded++
		stats.FactsSeeded += len(targets)
	}

	// Replay elision: a retained statement is skip-safe when every cell it
	// watches or writes carries its complete old set into the new program
	// (untainted, matched, no dropped targets) and its copy edges map onto
	// matched objects. For such a statement the captured solve's firings
	// over the frozen facts are exactly what the cold schedule would redo:
	// the edges are restored directly, the counter contribution is added
	// to the live recorder after the solve, and only genuinely new facts
	// fire it during the run. Exact-edge strategies only — range edges
	// (Offsets) propagate through cells the per-statement write sets do
	// not enumerate.
	var skip map[*ir.Stmt]bool
	var frozenEdges []core.Edge
	var carry core.Recorder
	if arts.exact {
		skip = make(map[*ir.Stmt]bool, len(m.stmts))
		var mapped []core.Edge
	stmts:
		for _, oldSt := range g.prog.Stmts {
			newSt, retained := m.stmts[oldSt]
			if !retained {
				continue
			}
			a := arts.byStmt[oldSt]
			if a == nil {
				continue
			}
			for _, w := range a.watched {
				if ineligible[w] {
					continue stmts
				}
			}
			for _, w := range a.writes {
				if ineligible[w] {
					continue stmts
				}
			}
			mapped = mapped[:0]
			for _, e := range a.edges {
				ndst, ok := mapCell(m, e.Dst)
				if !ok {
					continue stmts
				}
				nsrc, ok := mapCell(m, e.Src)
				if !ok {
					continue stmts
				}
				mapped = append(mapped, core.Edge{Dst: ndst, Src: nsrc, Size: e.Size})
			}
			frozenEdges = append(frozenEdges, mapped...)
			addPure(&carry, &a.counts, 1)
			skip[newSt] = true
		}
		stats.StmtsSkipped = len(skip)
		stats.EdgesRestored = len(frozenEdges)
	}

	strat, err := cfg.strategy(newRes.Layout)
	if err != nil {
		return nil, nil, nil, err
	}
	result := core.AnalyzeResumeContext(ctx, newRes.IR, strat, cfg.coreOptions(),
		core.ResumeState{Seeds: seeds, Edges: frozenEdges, SkipReplay: skip})
	// The elided statements' logical Lookup/Resolve calls happened in the
	// captured solve; carrying their contributions over is what keeps the
	// Figure-3 counters byte-identical to a cold run. The cache hit/miss
	// split is NOT carried (those calls never touched this run's memo), so
	// on the warm path hits+misses accounts only for the live calls.
	addPure(strat.Recorder(), &carry, 1)
	stats.Outcome = "resumed"
	stats.ConvergeTime = time.Since(start) - stats.DecodeTime
	return newRes, result, stats, nil
}

// fallback runs the cold path, front end included.
func fallback(ctx context.Context, sources []frontend.Source, cfg Config, stats *Stats) (*frontend.Result, *core.Result, *Stats, error) {
	res, result, err := Analyze(ctx, sources, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	stats.Outcome = "cold"
	return res, result, stats, nil
}

// fallbackLoaded is fallback with the front end already run.
func fallbackLoaded(ctx context.Context, res *frontend.Result, cfg Config, stats *Stats) (*frontend.Result, *core.Result, *Stats, error) {
	strat, err := cfg.strategy(res.Layout)
	if err != nil {
		return nil, nil, nil, err
	}
	stats.Outcome = "cold"
	return res, core.AnalyzeContext(ctx, res.IR, strat, cfg.coreOptions()), stats, nil
}
