package metrics

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// DemandMeasurement compares one demand-driven query against the exhaustive
// solve of the same (program, strategy) pair: how long the first query took
// (slice construction plus propagation), how long a repeated query takes
// once the slice is memoized, and how much of the program the slice
// actually touched.
//
// The queried variable is the median of the program's named dereference
// pointers when ranked by slice size: single-site queries vary from a few
// cells to most of the program (a pointer fed through deep call chains
// drags its whole feeding region in), so the median is the honest "what a
// typical query costs" figure, and Spread records the range.
type DemandMeasurement struct {
	Name     string // program
	Strategy string
	QueryVar string // the measured (median-slice) variable

	FirstQuery time.Duration // cold query: slice construction + fixpoint
	WarmQuery  time.Duration // repeat of the same query (memoized slice)
	FullSolve  time.Duration // exhaustive solve of the whole program

	DemandCells int // cells interned by the median query's slice
	FullCells   int // cells interned by the exhaustive solve
	TotalStmts  int // normalized statements in the program

	// StmtsActivated is how many statements the median query's slice pulled
	// in (out of TotalStmts).
	StmtsActivated int
	// MinCells/MaxCells are the smallest and largest single-query slices
	// across every named dereference pointer (each on a fresh engine).
	MinCells, MaxCells int
	// Queries is how many distinct named dereference pointers were sliced
	// to find the median.
	Queries int
	// Fallback is true when the slice budget tripped and the query would
	// have rerouted to the exhaustive solver. Measurements run uncapped, so
	// this stays false.
	Fallback bool
}

// CellRatio returns DemandCells / FullCells — the fraction of the
// exhaustive solve's cell space the median query's slice visited.
func (m *DemandMeasurement) CellRatio() float64 {
	if m.FullCells == 0 {
		return 0
	}
	return float64(m.DemandCells) / float64(m.FullCells)
}

// queryCandidates lists the pointer operands of the program's dereference
// sites (loads and stores) that carry a source symbol, deduplicated in
// program order — the variables an interactive client plausibly asks about.
func queryCandidates(prog *ir.Program) []*ir.Object {
	seen := make(map[*ir.Object]bool)
	var out []*ir.Object
	for _, st := range prog.Stmts {
		if st.Op != ir.OpLoad && st.Op != ir.OpStore {
			continue
		}
		p := st.Ptr
		if p == nil || p.Sym == nil || p.Sym.Name == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// MeasureDemand is MeasureDemandContext under context.Background.
func MeasureDemand(name string, sources []frontend.Source, fopts frontend.Options, opts Options) ([]*DemandMeasurement, error) {
	return MeasureDemandContext(context.Background(), name, sources, fopts, opts)
}

// MeasureDemandContext measures the demand-driven engine against the
// exhaustive solver for every requested strategy. Per strategy it slices
// every candidate variable once (fresh engine each) to find the median
// query, then times that query cold, warm, and against the exhaustive
// solve; Options.Repeat keeps the fastest of each timing independently.
func MeasureDemandContext(ctx context.Context, name string, sources []frontend.Source, fopts frontend.Options, opts Options) ([]*DemandMeasurement, error) {
	res, err := frontend.Load(sources, fopts)
	if err != nil {
		return nil, err
	}
	cands := queryCandidates(res.IR)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%s: no named dereference site to query", name)
	}
	repeat := opts.Repeat
	if repeat < 1 {
		repeat = 1
	}
	names := opts.Strategies
	if len(names) == 0 {
		names = StrategyNames
	}

	newDemand := func(sn string) *core.Demand {
		strat := NewStrategy(sn, res.Layout)
		return core.NewDemand(res.IR, strat, core.Options{NoCycleElim: opts.NoCycleElim}, 0)
	}

	var out []*DemandMeasurement
	for _, sn := range names {
		m := &DemandMeasurement{
			Name:     name,
			Strategy: sn,
			Queries:  len(cands),
		}

		// Rank every candidate by slice size and pick the median.
		type sized struct {
			obj   *ir.Object
			cells int
		}
		ranked := make([]sized, 0, len(cands))
		for _, o := range cands {
			d := newDemand(sn)
			if err := d.Query(ctx, o); err != nil {
				return nil, fmt.Errorf("%s/%s: slice %s: %w", name, sn, o.Sym.Name, err)
			}
			ranked = append(ranked, sized{o, d.Stats().CellsVisited})
		}
		sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].cells < ranked[j].cells })
		m.MinCells = ranked[0].cells
		m.MaxCells = ranked[len(ranked)-1].cells
		obj := ranked[len(ranked)/2].obj
		m.QueryVar = obj.Sym.Name

		for r := 0; r < repeat; r++ {
			// Exhaustive baseline.
			strat := NewStrategy(sn, res.Layout)
			full := core.AnalyzeContext(ctx, res.IR, strat,
				core.Options{Limits: opts.Limits, NoCycleElim: opts.NoCycleElim})
			if full.Incomplete != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, sn, full.Incomplete.AsError())
			}

			// Cold demand query on a fresh engine, then a warm repeat.
			d := newDemand(sn)
			start := time.Now()
			err := d.Query(ctx, obj)
			cold := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: demand query: %w", name, sn, err)
			}
			start = time.Now()
			if err := d.Query(ctx, obj); err != nil {
				return nil, fmt.Errorf("%s/%s: warm query: %w", name, sn, err)
			}
			warm := time.Since(start)

			st := d.Stats()
			if r == 0 || full.Duration < m.FullSolve {
				m.FullSolve = full.Duration
			}
			if r == 0 || cold < m.FirstQuery {
				m.FirstQuery = cold
			}
			if r == 0 || warm < m.WarmQuery {
				m.WarmQuery = warm
			}
			m.FullCells = full.NumCells()
			m.DemandCells = st.CellsVisited
			m.StmtsActivated = st.StmtsActivated
			m.TotalStmts = st.TotalStmts
		}
		out = append(out, m)
	}
	return out, nil
}
