// Package export serializes analysis results and experiment measurements to
// JSON, so the reproduced figures can be consumed by external tooling
// (plotting scripts, CI regression checks) instead of being re-parsed from
// the text tables.
package export

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// PointsTo is the JSON form of one cell's points-to set.
type PointsTo struct {
	Cell    string   `json:"cell"`
	Targets []string `json:"targets"`
}

// ResultJSON is the JSON form of one analysis run.
type ResultJSON struct {
	Strategy     string     `json:"strategy"`
	TotalFacts   int        `json:"total_facts"`
	AvgDerefSize float64    `json:"avg_deref_size"`
	DurationNS   int64      `json:"duration_ns"`
	Sets         []PointsTo `json:"sets,omitempty"`
}

// Result converts a core.Result. includeSets controls whether the full
// points-to sets are embedded (they can be large).
func Result(r *core.Result, includeSets bool) ResultJSON {
	out := ResultJSON{
		Strategy:     r.Strategy.Name(),
		TotalFacts:   r.TotalFacts(),
		AvgDerefSize: r.AvgDerefSetSize(),
		DurationNS:   r.Duration.Nanoseconds(),
	}
	if includeSets {
		r.Cells(func(c core.Cell, set core.CellSet) {
			if c.Obj.IsTemp() {
				return
			}
			pt := PointsTo{Cell: c.String()}
			for _, t := range set.Sorted() {
				pt.Targets = append(pt.Targets, t.String())
			}
			out.Sets = append(out.Sets, pt)
		})
		sort.Slice(out.Sets, func(i, j int) bool { return out.Sets[i].Cell < out.Sets[j].Cell })
	}
	return out
}

// SiteJSON is the JSON form of one dereference site.
type SiteJSON struct {
	Pos     string `json:"pos"`
	Pointer string `json:"pointer"`
	Size    int    `json:"size"`
}

// Sites converts the per-site set sizes of a result.
func Sites(r *core.Result, prog *ir.Program) []SiteJSON {
	var out []SiteJSON
	for _, s := range prog.Sites {
		out = append(out, SiteJSON{
			Pos:     s.Pos.String(),
			Pointer: s.Ptr.Name,
			Size:    r.SiteSetSize(s),
		})
	}
	return out
}

// RunJSON is the JSON form of one (program, strategy) measurement.
type RunJSON struct {
	Strategy     string  `json:"strategy"`
	AvgDerefSize float64 `json:"avg_deref_size"`
	TotalFacts   int     `json:"total_facts"`
	DurationNS   int64   `json:"duration_ns"`
	Steps        int     `json:"steps,omitempty"`

	// Every solver counter under its declared name (core.Counters). The
	// six Figure-3 counters are always present; the others are omitted
	// when zero.
	core.Recorder
	core.WaveStats
}

// ProgramJSON is the JSON form of one benchmark program's measurements.
type ProgramJSON struct {
	Name          string             `json:"name"`
	LOC           int                `json:"loc"`
	NumStmts      int                `json:"num_stmts"`
	HasStructCast bool               `json:"has_struct_cast"`
	Runs          map[string]RunJSON `json:"runs"`
}

// Program converts a metrics.Program.
func Program(p *metrics.Program) ProgramJSON {
	out := ProgramJSON{
		Name:          p.Name,
		LOC:           p.LOC,
		NumStmts:      p.NumStmts,
		HasStructCast: p.HasStructCast,
		Runs:          make(map[string]RunJSON, len(p.Runs)),
	}
	for name, r := range p.Runs {
		out.Runs[name] = RunJSON{
			Strategy:     r.Strategy,
			AvgDerefSize: r.AvgDerefSize,
			TotalFacts:   r.TotalFacts,
			DurationNS:   r.Duration.Nanoseconds(),
			Steps:        r.Steps,
			Recorder:     r.Recorder,
			WaveStats:    r.Wave,
		}
	}
	return out
}

// Evaluation is the top-level JSON document for a full corpus run.
// SolveParallelism records the intra-solve worker count the run used (absent
// for sequential runs) so readers know whether the schedule counters —
// waves, edge_batches, fact_crossings, par_* — are comparable across files.
type Evaluation struct {
	ABI              string        `json:"abi"`
	SolveParallelism int           `json:"solve_parallelism,omitempty"`
	Programs         []ProgramJSON `json:"programs"`
}

// WriteEvaluation marshals a full evaluation to w (indented).
func WriteEvaluation(w io.Writer, abi string, progs []*metrics.Program) error {
	return WriteEvaluationPar(w, abi, 0, progs)
}

// WriteEvaluationPar is WriteEvaluation with the solve parallelism stamped
// into the document (0 omits the field — a sequential run).
func WriteEvaluationPar(w io.Writer, abi string, solvePar int, progs []*metrics.Program) error {
	if solvePar == 1 {
		solvePar = 0 // 1 is the sequential executor; don't stamp it
	}
	ev := Evaluation{ABI: abi, SolveParallelism: solvePar}
	for _, p := range progs {
		ev.Programs = append(ev.Programs, Program(p))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ev)
}

// WriteResult marshals one analysis result to w (indented).
func WriteResult(w io.Writer, r *core.Result, prog *ir.Program, includeSets bool) error {
	doc := struct {
		ResultJSON
		Sites []SiteJSON `json:"sites"`
	}{Result(r, includeSets), Sites(r, prog)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DemandJSON is the wire form of one demand-vs-exhaustive measurement.
type DemandJSON struct {
	Program  string `json:"program"`
	Strategy string `json:"strategy"`
	QueryVar string `json:"query_var"`

	FirstQueryNS int64 `json:"first_query_ns"`
	WarmQueryNS  int64 `json:"warm_query_ns"`
	FullSolveNS  int64 `json:"full_solve_ns"`

	DemandCells    int  `json:"demand_cells"`
	FullCells      int  `json:"full_cells"`
	StmtsActivated int  `json:"stmts_activated"`
	TotalStmts     int  `json:"total_stmts"`
	MinCells       int  `json:"min_cells"`
	MaxCells       int  `json:"max_cells"`
	Queries        int  `json:"queries"`
	Fallback       bool `json:"fallback,omitempty"`
}

// WriteDemand marshals the demand-engine measurements to w (indented).
func WriteDemand(w io.Writer, abi string, ms []*metrics.DemandMeasurement) error {
	doc := struct {
		ABI    string       `json:"abi"`
		Demand []DemandJSON `json:"demand"`
	}{ABI: abi}
	for _, m := range ms {
		doc.Demand = append(doc.Demand, DemandJSON{
			Program:      m.Name,
			Strategy:     m.Strategy,
			QueryVar:     m.QueryVar,
			FirstQueryNS: m.FirstQuery.Nanoseconds(),
			WarmQueryNS:  m.WarmQuery.Nanoseconds(),
			FullSolveNS:  m.FullSolve.Nanoseconds(),

			DemandCells:    m.DemandCells,
			FullCells:      m.FullCells,
			StmtsActivated: m.StmtsActivated,
			TotalStmts:     m.TotalStmts,
			MinCells:       m.MinCells,
			MaxCells:       m.MaxCells,
			Queries:        m.Queries,
			Fallback:       m.Fallback,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
