// Package report renders the paper's tables and figures (Figure 3–6) from
// measured data as aligned text tables, plus ASCII bar charts for the
// ratio figures.
package report

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
)

// shortLabel maps strategy names to the column labels used in the paper.
var shortLabel = map[string]string{
	"collapse-always":    "Collapse",
	"collapse-on-cast":   "CoC",
	"common-initial-seq": "CIS",
	"offsets":            "Offsets",
}

// Fig3 renders Figure 3: program sizes, normalized assignment counts, and
// the lookup/resolve instrumentation percentages for the two portable
// casting-aware instances.
func Fig3(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 3: benchmark programs and lookup/resolve call statistics")
	fmt.Fprintln(w, "(percent of calls involving structs, and percent of those with a type mismatch)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %7s %7s | %9s %9s | %9s %9s\n",
		"program", "LOC", "stmts", "lk-str%", "rs-str%", "lk-mis%", "rs-mis%")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 76))
	group := false
	for _, p := range progs {
		if p.HasStructCast && !group {
			fmt.Fprintf(w, "%s  (programs below cast structures)\n", strings.Repeat("-", 52))
			group = true
		}
		fmt.Fprintf(w, "%-12s %7d %7d | %8.1f%% %8.1f%% | %8.1f%% %8.1f%%\n",
			p.Name, p.LOC, p.NumStmts,
			p.PctLookupStructs("common-initial-seq"),
			p.PctResolveStructs("common-initial-seq"),
			p.PctLookupMismatch("common-initial-seq"),
			p.PctResolveMismatch("common-initial-seq"))
	}
	fmt.Fprintln(w)
}

// Fig4 renders Figure 4: average points-to set size of a dereferenced
// pointer for each casting program under each instance.
func Fig4(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 4: average points-to set size of a dereferenced pointer")
	fmt.Fprintln(w, "(Collapse Always facts expanded per-field for comparability)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "program")
	for _, s := range metrics.StrategyNames {
		fmt.Fprintf(w, " %9s", shortLabel[s])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 12+4*10))
	for _, p := range progs {
		if !p.HasStructCast {
			continue
		}
		fmt.Fprintf(w, "%-12s", p.Name)
		for _, s := range metrics.StrategyNames {
			fmt.Fprintf(w, " %9.2f", p.Runs[s].AvgDerefSize)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Fig5 renders Figure 5: analysis-time ratios normalized to Offsets, with
// the absolute Offsets time shown under each program as the paper does.
func Fig5(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 5: analysis-time ratios (normalized to the Offsets instance)")
	fmt.Fprintln(w)
	ratioFigure(w, progs, func(p *metrics.Program, s string) float64 {
		return p.TimeRatio(s)
	})
	fmt.Fprintln(w, "absolute Offsets times:")
	for _, p := range progs {
		fmt.Fprintf(w, "  %-12s %v\n", p.Name, p.Runs["offsets"].Duration)
	}
	fmt.Fprintln(w)
}

// Fig6 renders Figure 6: total points-to edges normalized to Offsets.
func Fig6(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Figure 6: total points-to edges (normalized to the Offsets instance)")
	fmt.Fprintln(w)
	ratioFigure(w, progs, func(p *metrics.Program, s string) float64 {
		return p.EdgeRatio(s)
	})
	fmt.Fprintln(w, "absolute Offsets edge counts:")
	for _, p := range progs {
		fmt.Fprintf(w, "  %-12s %d\n", p.Name, p.Runs["offsets"].TotalFacts)
	}
	fmt.Fprintln(w)
}

// ratioFigure renders a table of per-strategy ratios plus a bar chart.
func ratioFigure(w io.Writer, progs []*metrics.Program, ratio func(*metrics.Program, string) float64) {
	fmt.Fprintf(w, "%-12s", "program")
	for _, s := range metrics.StrategyNames {
		fmt.Fprintf(w, " %9s", shortLabel[s])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 12+4*10))
	for _, p := range progs {
		fmt.Fprintf(w, "%-12s", p.Name)
		for _, s := range metrics.StrategyNames {
			fmt.Fprintf(w, " %9.2f", ratio(p, s))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	// Bars for the portable instances relative to 1.0 (Offsets).
	fmt.Fprintln(w, "bars (each ∎ = 0.25×; | marks the 1.0 Offsets baseline):")
	for _, p := range progs {
		for _, s := range []string{"collapse-on-cast", "common-initial-seq"} {
			r := ratio(p, s)
			n := int(r*4 + 0.5)
			if n > 48 {
				n = 48
			}
			bar := strings.Repeat("∎", n)
			if n >= 4 {
				bar = bar[:3*len("∎")] + "|" + bar[3*len("∎"):]
			}
			fmt.Fprintf(w, "  %-12s %-4s %5.2f %s\n", p.Name, shortLabel[s], r, bar)
		}
	}
	fmt.Fprintln(w)
}

// Summary prints the two headline claims with the measured evidence.
func Summary(w io.Writer, progs []*metrics.Program) {
	fmt.Fprintln(w, "Summary of the paper's two claims against this corpus:")
	fmt.Fprintln(w)

	// Claim (i): distinguishing fields matters.
	atLeast2x := 0
	castProgs := 0
	worstName, worstFactor := "", 0.0
	for _, p := range progs {
		if !p.HasStructCast {
			continue
		}
		castProgs++
		ca := p.Runs["collapse-always"].AvgDerefSize
		cis := p.Runs["common-initial-seq"].AvgDerefSize
		if cis > 0 && ca >= 2*cis {
			atLeast2x++
		}
		if cis > 0 && ca/cis > worstFactor {
			worstFactor = ca / cis
			worstName = p.Name
		}
	}
	fmt.Fprintf(w, "(i) field sensitivity: Collapse Always sets are ≥2× the CIS sets on %d/%d\n",
		atLeast2x, castProgs)
	fmt.Fprintf(w, "    casting programs; worst case %s at %.1f×\n", worstName, worstFactor)

	// Claim (ii): portability is cheap.
	within2pct := 0
	worstCoC, worstCoCName := 0.0, ""
	worstCIS, worstCISName := 0.0, ""
	for _, p := range progs {
		off := p.Runs["offsets"].AvgDerefSize
		coc := p.Runs["collapse-on-cast"].AvgDerefSize
		cis := p.Runs["common-initial-seq"].AvgDerefSize
		if off <= 0 {
			continue
		}
		if cis/off <= 1.02 {
			within2pct++
		}
		if coc/off-1 > worstCoC {
			worstCoC = coc/off - 1
			worstCoCName = p.Name
		}
		if cis/off-1 > worstCIS {
			worstCIS = cis/off - 1
			worstCISName = p.Name
		}
	}
	fmt.Fprintf(w, "(ii) portability: CIS within 2%% of Offsets on %d/%d programs;\n",
		within2pct, len(progs))
	fmt.Fprintf(w, "     worst cases: CoC +%.1f%% (%s), CIS +%.1f%% (%s)\n",
		100*worstCoC, worstCoCName, 100*worstCIS, worstCISName)
	fmt.Fprintln(w)
}

// classNote says what each determinism class promises.
var classNote = []struct {
	class core.Class
	note  string
}{
	{core.Pure, "equal at every -solve-parallel"},
	{core.Schedule, "fixed at one -solve-parallel"},
	{core.Machine, "vary run to run"},
}

// WaveStats renders the solver's counters (core.WaveStats) per (program,
// instance), one table per determinism class. A table has a column for each
// counter some run recorded and a row for each run that recorded one of
// them; a legend under it gives each column's unit and meaning.
func WaveStats(w io.Writer, progs []*metrics.Program) {
	var tot core.WaveStats
	for _, p := range progs {
		for _, r := range p.Runs {
			tot.Add(r.Wave)
		}
	}
	for _, cn := range classNote {
		var cols []core.Counter
		for _, c := range core.Counters {
			if c.Wave && c.Class == cn.class && *c.Field(nil, &tot) != 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) > 0 {
			counterTable(w, progs, cols, &tot, fmt.Sprintf("Solver counters, %s (%s)", cn.class, cn.note))
		}
	}
}

// counterTable renders one class's table: the given columns per run, the
// total row (peaks merge by max), then the unit/help legend.
func counterTable(w io.Writer, progs []*metrics.Program, cols []core.Counter, tot *core.WaveStats, title string) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w)
	width := make([]int, len(cols))
	line := fmt.Sprintf("%-12s %-8s", "program", "strategy")
	for i, c := range cols {
		width[i] = max(len(c.Name), len(fmt.Sprint(*c.Field(nil, tot))))
		line += fmt.Sprintf(" %*s", width[i], c.Name)
	}
	rule := strings.Repeat("-", len(line))
	fmt.Fprintf(w, "%s\n%s\n", line, rule)
	row := func(prog, strat string, ws *core.WaveStats) {
		fmt.Fprintf(w, "%-12s %-8s", prog, strat)
		for i, c := range cols {
			fmt.Fprintf(w, " %*d", width[i], *c.Field(nil, ws))
		}
		fmt.Fprintln(w)
	}
	for _, p := range progs {
		for _, s := range metrics.StrategyNames {
			if r := p.Runs[s]; r != nil && slices.ContainsFunc(cols, func(c core.Counter) bool {
				return *c.Field(nil, &r.Wave) != 0
			}) {
				row(p.Name, shortLabel[s], &r.Wave)
			}
		}
	}
	fmt.Fprintln(w, rule)
	row("total", "", tot)
	fmt.Fprintln(w)
	for _, c := range cols {
		fmt.Fprintf(w, "  %-16s %-10s %s\n", c.Name, c.Unit, c.Help)
	}
	fmt.Fprintln(w)
}

// Demand renders the demand-driven engine's measurements: per program, the
// median query's cold and warm latency against the exhaustive solve, and
// how much of the program the slice touched.
func Demand(w io.Writer, ms []*metrics.DemandMeasurement) {
	fmt.Fprintln(w, "Demand-driven queries vs exhaustive solve (median named dereference pointer;")
	fmt.Fprintln(w, "slice range spans the cheapest to the most expensive single query):")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-10s %10s %10s %10s | %7s %14s %12s\n",
		"program", "query", "first", "warm", "full", "cells%", "cells", "slice range")
	for _, m := range ms {
		fmt.Fprintf(w, "%-12s %-10s %10v %10v %10v | %6.1f%% %6d/%-7d %5d-%-6d\n",
			m.Name, m.QueryVar, m.FirstQuery, m.WarmQuery, m.FullSolve,
			100*m.CellRatio(), m.DemandCells, m.FullCells, m.MinCells, m.MaxCells)
	}
	fmt.Fprintln(w)
}
