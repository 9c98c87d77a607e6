// Command ptrbench regenerates the paper's evaluation: it runs all four
// analysis instances over the 20-program corpus and prints Figures 3–6
// plus the headline summary.
//
// Usage:
//
//	ptrbench [flags]
//
// Flags:
//
//	-table name   which table to print: fig3, fig4, fig5, fig6, summary,
//	              stats, all (default)
//	-stats        also print the solver's counters, one table per
//	              determinism class (pure, schedule, machine)
//	-nocycle      disable online cycle elimination and wave scheduling
//	              (ablation; facts are identical, only the schedule changes)
//	-noprep       disable the offline constraint-reduction prepass and the
//	              hash-consed set pool (ablation; facts are identical)
//	-peak-mem     sample peak live heap at wave barriers; surfaces as the
//	              peak_live_bytes column of the -stats machine table
//	-prep         measure the prepass + interner against their ablation on
//	              large synthetic hub-and-chains programs (honors -repeat,
//	              -solve-parallel, -prep-stmts)
//	-prep-stmts n largest program size for -prep in IR statements
//	              (default 500000; two smaller sizes are derived)
//	-abi name     layout for the offsets instance (lp64, ilp32, packed1)
//	-repeat n     timing repetitions per (program, instance) (default 3)
//	-parallel n   worker count for the corpus run (default GOMAXPROCS;
//	              1 forces the sequential path)
//	-solve-parallel n
//	              worker count inside each solve (the work-stealing wave
//	              executor; default 1 = sequential). Facts and Figure 3-6
//	              numbers are identical at any setting; only wall time and
//	              the -stats schedule and machine counters change
//	-program p    restrict to one corpus program
//	-demand       measure the demand-driven query engine instead of the
//	              figures: per program, the median single query's cold and
//	              warm latency vs the exhaustive solve plus slice-size
//	              counters (honors -json, -repeat, -program, -abi)
//	-incr         measure the incremental re-analysis subsystem instead of
//	              the figures: per generated single-function edit, the
//	              median warm-resume wall time vs a cold solve of the
//	              edited program (honors -repeat, -program, -abi, -edits)
//	-edits n      edits per program for -incr (default 3)
//	-sweep        also run the synthetic generator sweep
//	-timeout d    abort the whole corpus run after duration d (exit 4)
//	-max-steps n  bound each solver run's worklist steps (exit 3 on trip)
//	-cpuprofile f write a CPU profile of the evaluation to file f
//	-memprofile f write an allocation heap profile to file f on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cc/layout"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/export"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/steens"
)

func main() { os.Exit(cli.Run("ptrbench", run)) }

func run() error {
	table := flag.String("table", "all", "fig3, fig4, fig5, fig6, summary, or all")
	abi := flag.String("abi", "lp64", "ABI for the offsets instance")
	repeat := flag.Int("repeat", 3, "timing repetitions")
	parallel := flag.Int("parallel", 0, "corpus worker count (0 = GOMAXPROCS)")
	solvePar := flag.Int("solve-parallel", 1, "intra-solve worker count (1 = sequential executor)")
	program := flag.String("program", "", "restrict to one corpus program")
	demand := flag.Bool("demand", false, "measure demand-driven queries vs exhaustive solves")
	incrFlag := flag.Bool("incr", false, "measure incremental warm resumes vs cold solves over generated edits")
	edits := flag.Int("edits", 3, "edits per program for -incr")
	sweep := flag.Bool("sweep", false, "run the synthetic generator sweep")
	stats := flag.Bool("stats", false, "print the solver's counters by determinism class")
	noCycle := flag.Bool("nocycle", false, "disable cycle elimination / wave scheduling (ablation)")
	noPrep := flag.Bool("noprep", false, "disable the offline constraint-reduction prepass + set interner (ablation)")
	peakMem := flag.Bool("peak-mem", false, "sample peak live heap at wave barriers (adds peak_live_bytes to -stats)")
	prep := flag.Bool("prep", false, "measure the prepass + interner vs ablation on large synthetic programs")
	prepStmts := flag.Int("prep-stmts", 500000, "largest statement count for -prep (smaller sizes are derived)")
	jsonOut := flag.Bool("json", false, "emit the full evaluation as JSON instead of tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	var gov cli.Govern
	gov.RegisterFlags(flag.CommandLine)
	flag.Parse()

	theABI, err := cli.ParseABI(*abi)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ptrbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ptrbench: memprofile: %v\n", err)
			}
		}()
	}
	ctx, cancel := gov.Context()
	defer cancel()

	names := corpus.SortedByGroup()
	if *program != "" {
		if _, ok := corpus.Lookup(*program); !ok {
			return cli.Usagef("unknown program %q", *program)
		}
		names = []string{*program}
	}

	var specs []metrics.Spec
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			return err
		}
		specs = append(specs, metrics.Spec{Name: name, Sources: src})
	}

	if *prep {
		sizes := []int{*prepStmts / 25, *prepStmts / 5, *prepStmts}
		return runPrep(ctx, sizes, *repeat, *solvePar)
	}
	if *incrFlag {
		return runIncr(ctx, names, *abi, *repeat, *edits)
	}
	if *demand {
		var ms []*metrics.DemandMeasurement
		for _, spec := range specs {
			pm, err := metrics.MeasureDemandContext(ctx, spec.Name, spec.Sources,
				frontend.Options{ABI: theABI},
				metrics.Options{Repeat: *repeat, Strategies: []string{"common-initial-seq"},
					NoCycleElim: *noCycle, Limits: gov.Limits()})
			if err != nil {
				return err
			}
			ms = append(ms, pm...)
		}
		if *jsonOut {
			return export.WriteDemand(os.Stdout, *abi, ms)
		}
		report.Demand(os.Stdout, ms)
		return nil
	}

	progs, err := metrics.MeasureCorpusContext(ctx, specs, frontend.Options{ABI: theABI},
		metrics.Options{Repeat: *repeat, Parallelism: *parallel,
			SolveParallelism: *solvePar,
			NoCycleElim:      *noCycle, NoPrepass: *noPrep,
			TrackPeakMem: *peakMem, Limits: gov.Limits()})
	if err != nil {
		return err
	}

	w := os.Stdout
	if *jsonOut {
		return export.WriteEvaluationPar(w, *abi, *solvePar, progs)
	}
	switch *table {
	case "fig3":
		report.Fig3(w, progs)
	case "fig4":
		report.Fig4(w, progs)
	case "fig5":
		report.Fig5(w, progs)
	case "fig6":
		report.Fig6(w, progs)
	case "summary":
		report.Summary(w, progs)
	case "stats":
		report.WaveStats(w, progs)
	case "related":
		runRelated(ctx, names, theABI, gov.Limits())
	case "all":
		report.Fig3(w, progs)
		report.Fig4(w, progs)
		report.Fig5(w, progs)
		report.Fig6(w, progs)
		report.Summary(w, progs)
	default:
		return cli.Usagef("unknown table %q", *table)
	}
	if *stats && *table != "stats" {
		report.WaveStats(w, progs)
	}

	if *sweep {
		return runSweep(ctx, theABI, *repeat, gov.Limits())
	}
	return nil
}

// runRelated compares the framework's instances against the related-work
// Steensgaard-style unification baseline (§6 of the paper): average deref
// set sizes and analysis time.
func runRelated(ctx context.Context, names []string, abi *layout.ABI, limits core.Limits) {
	fmt.Println("Related work: subset-based framework instances vs. Steensgaard unification")
	fmt.Println("(average deref set size; unification merges classes, trading precision for speed)")
	fmt.Println()
	fmt.Printf("%-12s %9s %9s %9s | %12s %12s\n",
		"program", "Collapse", "CIS", "Steens", "CIS time", "Steens time")
	opts := core.Options{Limits: limits}
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		res, err := frontend.Load(src, frontend.Options{ABI: abi})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		cis := core.AnalyzeContext(ctx, res.IR, core.NewCIS(), opts)
		col := core.AnalyzeContext(ctx, res.IR, core.NewCollapseAlways(), opts)
		st := steens.Analyze(res.IR)
		expand := func(o *ir.Object) int {
			c := core.Cell{Obj: o}
			return core.NewCollapseAlways().ExpandedSize(c)
		}
		fmt.Printf("%-12s %9.2f %9.2f %9.2f | %12v %12v\n", name,
			col.AvgDerefSetSize(), cis.AvgDerefSetSize(),
			st.AvgDerefSetSize(expand),
			cis.Duration, st.Duration)
		if cis.Incomplete != nil || col.Incomplete != nil {
			fmt.Fprintf(os.Stderr, "  %s: incomplete run, sizes are partial\n", name)
		}
	}
	fmt.Println()
}

// runSweep measures the synthetic generator across cast densities and
// sizes, showing how the gap between the instances grows with casting.
func runSweep(ctx context.Context, abi *layout.ABI, repeat int, limits core.Limits) error {
	fmt.Println("Synthetic sweep: average deref set size vs. cast density")
	fmt.Printf("%-24s %9s %9s %9s %9s\n", "workload", "Collapse", "CoC", "CIS", "Offsets")
	for _, density := range []int{0, 10, 25, 50, 75} {
		p := corpus.DefaultGenParams()
		p.NStructs = 6
		p.NDerefs = 120
		p.CastDensity = density
		src := corpus.Generate(p)
		m, err := metrics.MeasureContext(ctx, fmt.Sprintf("gen(cast=%d%%)", density), src,
			frontend.Options{ABI: abi}, metrics.Options{Repeat: repeat, Limits: limits})
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		fmt.Printf("%-24s %9.2f %9.2f %9.2f %9.2f\n", m.Name,
			m.Runs["collapse-always"].AvgDerefSize,
			m.Runs["collapse-on-cast"].AvgDerefSize,
			m.Runs["common-initial-seq"].AvgDerefSize,
			m.Runs["offsets"].AvgDerefSize)
	}
	return nil
}
