package repro

// Benchmark harness: one benchmark family per table/figure in the paper's
// evaluation (Figures 3-6), plus the ablations DESIGN.md calls out.
//
//	go test -bench=Fig -benchmem          # the paper's figures
//	go test -bench=Ablation -benchmem     # design-choice ablations
//	go test -bench=Sweep                  # synthetic workload scaling
//
// Figure 5's quantity of interest — analysis time per instance — is the
// benchmark time itself; Figures 3, 4 and 6 attach their quantities as
// custom benchmark metrics (lookup-struct%, deref-size, facts).

import (
	"fmt"
	"testing"

	"repro/internal/cc/layout"
	"repro/internal/cc/pp"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/steens"
)

// loadProgram front-ends one corpus program once per benchmark.
func loadProgram(b *testing.B, name string) *frontend.Result {
	b.Helper()
	src, err := corpus.Source(name)
	if err != nil {
		b.Fatal(err)
	}
	res, err := frontend.Load(src, frontend.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchAnalysis times one (program, strategy) analysis and reports the
// figure metrics.
func benchAnalysis(b *testing.B, name, strategy string) {
	res := loadProgram(b, name)
	var last *core.Result
	var rec core.Recorder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strat := metrics.NewStrategy(strategy, res.Layout)
		last = core.Analyze(res.IR, strat)
		rec = *strat.Recorder()
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(last.AvgDerefSetSize(), "derefsize") // Figure 4
		b.ReportMetric(float64(last.TotalFacts()), "facts") // Figure 6
		if rec.LookupCalls > 0 {                            // Figure 3
			b.ReportMetric(100*float64(rec.LookupStructs)/float64(rec.LookupCalls), "lkstruct%")
		}
		if rec.LookupStructs > 0 {
			b.ReportMetric(100*float64(rec.LookupMismatches)/float64(rec.LookupStructs), "lkmism%")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3's instrumentation columns: it runs the
// Common Initial Sequence instance (the one the columns are reported for)
// over every corpus program.
func BenchmarkFig3(b *testing.B) {
	for _, name := range corpus.SortedByGroup() {
		b.Run(name, func(b *testing.B) {
			benchAnalysis(b, name, "common-initial-seq")
		})
	}
}

// BenchmarkFig4 regenerates Figure 4: average dereference set sizes for the
// casting group under all four instances (the derefsize metric).
func BenchmarkFig4(b *testing.B) {
	for _, e := range corpus.Programs {
		if !e.CastGroup {
			continue
		}
		for _, s := range metrics.StrategyNames {
			b.Run(e.Name+"/"+s, func(b *testing.B) {
				benchAnalysis(b, e.Name, s)
			})
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: analysis time for every program and
// instance; the ns/op column IS the figure (normalize per program against
// the offsets row).
func BenchmarkFig5(b *testing.B) {
	for _, name := range corpus.SortedByGroup() {
		for _, s := range metrics.StrategyNames {
			b.Run(name+"/"+s, func(b *testing.B) {
				benchAnalysis(b, name, s)
			})
		}
	}
}

// BenchmarkFig5Batch runs the whole Figure 5 workload — every (program,
// instance) pair — through the parallel batch driver at several worker
// counts. On a multi-core host the parallel/1 vs parallel/N ratio is the
// batch-path speedup; on a single core the pool must at least not regress.
func BenchmarkFig5Batch(b *testing.B) {
	var loaded []*frontend.Result
	for _, name := range corpus.SortedByGroup() {
		loaded = append(loaded, loadProgram(b, name))
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var jobs []core.BatchJob
				for _, res := range loaded {
					for _, s := range metrics.StrategyNames {
						// Per-job layout engines: concurrent jobs must not
						// share the engine's lazily-filled record cache.
						lay := layout.New(res.Layout.ABI())
						jobs = append(jobs, core.BatchJob{
							Prog:  res.IR,
							Strat: metrics.NewStrategy(s, lay),
						})
					}
				}
				core.AnalyzeBatch(jobs, par)
			}
		})
	}
}

// BenchmarkFig6 regenerates Figure 6: total points-to edges per program and
// instance (the facts metric), normalized per program against offsets.
func BenchmarkFig6(b *testing.B) {
	for _, name := range corpus.SortedByGroup() {
		for _, s := range metrics.StrategyNames {
			b.Run(name+"/"+s, func(b *testing.B) {
				benchAnalysis(b, name, s)
			})
		}
	}
}

// BenchmarkAblationAssumption1 compares the Assumption 1 pointer-arithmetic
// smearing against disabling it (unsound, smaller sets): the cost of the
// paper's safety rule.
func BenchmarkAblationAssumption1(b *testing.B) {
	for _, name := range []string{"bc", "less", "simulator", "ft"} {
		res := loadProgram(b, name)
		for _, mode := range []struct {
			label string
			opts  core.Options
		}{
			{"smear", core.Options{}},
			{"nosmear", core.Options{NoPtrArithSmear: true}},
		} {
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				var last *core.Result
				for i := 0; i < b.N; i++ {
					last = core.AnalyzeWith(res.IR, core.NewCIS(), mode.opts)
				}
				b.ReportMetric(last.AvgDerefSetSize(), "derefsize")
				b.ReportMetric(float64(last.TotalFacts()), "facts")
			})
		}
	}
}

// BenchmarkAblationFirstFieldNormalize compares the first-field normalize
// against the naive identity normalization (unsound: misses Problem 1).
func BenchmarkAblationFirstFieldNormalize(b *testing.B) {
	for _, name := range []string{"li", "less", "compiler"} {
		res := loadProgram(b, name)
		for _, mode := range []struct {
			label string
			mk    func() core.Strategy
		}{
			{"normalize", func() core.Strategy { return core.NewCollapseOnCast() }},
			{"identity", func() core.Strategy { return core.NewCollapseOnCastNoNormalize() }},
		} {
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				var last *core.Result
				for i := 0; i < b.N; i++ {
					last = core.Analyze(res.IR, mode.mk())
				}
				b.ReportMetric(last.AvgDerefSetSize(), "derefsize")
				b.ReportMetric(float64(last.TotalFacts()), "facts")
			})
		}
	}
}

// BenchmarkAblationByteVsWordOffsets compares the paper's per-byte offset
// cells against word-granular ones.
func BenchmarkAblationByteVsWordOffsets(b *testing.B) {
	for _, name := range []string{"bc", "loader", "simulator"} {
		res := loadProgram(b, name)
		for _, gran := range []int64{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/gran%d", name, gran), func(b *testing.B) {
				var last *core.Result
				for i := 0; i < b.N; i++ {
					last = core.Analyze(res.IR, core.NewOffsetsGranular(res.Layout, gran))
				}
				b.ReportMetric(last.AvgDerefSetSize(), "derefsize")
				b.ReportMetric(float64(last.TotalFacts()), "facts")
			})
		}
	}
}

// BenchmarkAblationLibSummaries compares analysis with the libc summaries
// against treating all externals as no-ops.
func BenchmarkAblationLibSummaries(b *testing.B) {
	for _, name := range []string{"anagram", "pmake", "diffh"} {
		src, err := corpus.Source(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			label string
			opts  frontend.Options
		}{
			{"summaries", frontend.Options{}},
			{"noops", frontend.Options{NoLibSummaries: true}},
		} {
			res, err := frontend.Load(src, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				var last *core.Result
				for i := 0; i < b.N; i++ {
					last = core.Analyze(res.IR, core.NewCIS())
				}
				b.ReportMetric(last.AvgDerefSetSize(), "derefsize")
				b.ReportMetric(float64(last.TotalFacts()), "facts")
			})
		}
	}
}

// BenchmarkAblationHeapCloning compares the paper's plain allocation-site
// heap naming against one level of allocation-wrapper cloning.
func BenchmarkAblationHeapCloning(b *testing.B) {
	for _, name := range []string{"anagram", "ft", "compiler", "pmake"} {
		src, err := corpus.Source(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			label string
			opts  frontend.Options
		}{
			{"plain", frontend.Options{}},
			{"cloned", frontend.Options{CloneAllocWrappers: true}},
		} {
			res, err := frontend.Load(src, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				var last *core.Result
				for i := 0; i < b.N; i++ {
					last = core.Analyze(res.IR, core.NewCIS())
				}
				b.ReportMetric(last.AvgDerefSetSize(), "derefsize")
				b.ReportMetric(float64(last.TotalFacts()), "facts")
			})
		}
	}
}

// BenchmarkSweepCastDensity scales the synthetic generator's cast density
// and measures the gap between the instances (the generator's purpose).
func BenchmarkSweepCastDensity(b *testing.B) {
	for _, density := range []int{0, 25, 75} {
		p := corpus.DefaultGenParams()
		p.NStructs = 6
		p.NDerefs = 120
		p.CastDensity = density
		src := corpus.Generate(p)
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range metrics.StrategyNames {
			b.Run(fmt.Sprintf("cast%d/%s", density, s), func(b *testing.B) {
				var last *core.Result
				for i := 0; i < b.N; i++ {
					last = core.Analyze(res.IR, metrics.NewStrategy(s, res.Layout))
				}
				b.ReportMetric(last.AvgDerefSetSize(), "derefsize")
			})
		}
	}
}

// BenchmarkSweepProgramSize scales the synthetic generator's size and
// measures solver throughput (statements per second).
func BenchmarkSweepProgramSize(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		p := corpus.DefaultGenParams()
		p.NStructs = n
		p.NObjects = n
		p.NDerefs = 40 * n
		src := corpus.Generate(p)
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("structs%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Analyze(res.IR, core.NewCIS())
			}
			b.ReportMetric(float64(res.IR.NumStmts()), "stmts")
		})
	}
}

// castsParams are the generator parameters of the perfbench casts workload.
var castsParams = corpus.GenParams{NStructs: 24, NFields: 8, NObjects: 12, NDerefs: 600, CastDensity: 25, Seed: 1}

// BenchmarkSolverRepresentation compares the dense CellID/Bits solver
// (core.Analyze) against the retained map-based implementation
// (core.AnalyzeReference) on identical inputs: same programs, same
// strategies, byte-identical results (enforced by the differential test in
// internal/core). The strategy is constructed once and warmed before timing,
// so its per-type leaf tables are built and the measured allocs/op isolate
// the solver fixpoint itself — the dense/reference ratio is the cost of the
// map representation. "casts" is the cast-heavy generated program of the
// perfbench casts workload. Run with -benchmem.
func BenchmarkSolverRepresentation(b *testing.B) {
	for _, name := range []string{"anagram", "bc", "less", "simulator", "casts"} {
		var res *frontend.Result
		if name == "casts" {
			var err error
			res, err = frontend.Load(corpus.Generate(castsParams), frontend.Options{})
			if err != nil {
				b.Fatal(err)
			}
		} else {
			res = loadProgram(b, name)
		}
		for _, s := range []string{"offsets", "common-initial-seq", "collapse-always"} {
			b.Run(name+"/"+s+"/dense", func(b *testing.B) {
				strat := metrics.NewStrategy(s, res.Layout)
				core.Analyze(res.IR, strat)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.Analyze(res.IR, strat)
				}
			})
			b.Run(name+"/"+s+"/reference", func(b *testing.B) {
				strat := metrics.NewStrategy(s, res.Layout)
				core.AnalyzeReference(res.IR, strat, core.Options{})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.AnalyzeReference(res.IR, strat, core.Options{})
				}
			})
		}
	}
}

// BenchmarkParallelSolve compares the sequential dense solver against the
// work-stealing wave executor on the biggest corpus programs. Results are
// byte-identical at every setting (enforced by the differential tests in
// internal/core); this measures wall time only. On a single-core host the
// par8 numbers show the executor's coordination overhead, not a speedup —
// the ≥1.4× target needs a multi-core machine. Warm-strategy pattern as in
// BenchmarkSolverRepresentation so the fixpoint dominates.
func BenchmarkParallelSolve(b *testing.B) {
	for _, name := range []string{"bc", "compiler", "less"} {
		res := loadProgram(b, name)
		for _, cfg := range []struct {
			label string
			par   int
		}{{"seq", 1}, {"par8", 8}} {
			b.Run(name+"/"+cfg.label, func(b *testing.B) {
				strat := metrics.NewStrategy("common-initial-seq", res.Layout)
				opts := core.Options{Parallelism: cfg.par}
				core.AnalyzeWith(res.IR, strat, opts)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.AnalyzeWith(res.IR, strat, opts)
				}
			})
		}
	}
}

// BenchmarkRelated times the Steensgaard unification baseline against the
// CIS instance (the related-work speed/precision trade).
func BenchmarkRelated(b *testing.B) {
	for _, name := range []string{"compiler", "li", "less", "bc"} {
		res := loadProgram(b, name)
		b.Run(name+"/cis", func(b *testing.B) {
			var last *core.Result
			for i := 0; i < b.N; i++ {
				last = core.Analyze(res.IR, core.NewCIS())
			}
			b.ReportMetric(last.AvgDerefSetSize(), "derefsize")
		})
		b.Run(name+"/steensgaard", func(b *testing.B) {
			var last *steens.Result
			for i := 0; i < b.N; i++ {
				last = steens.Analyze(res.IR)
			}
			expand := func(o *ir.Object) int { return core.NewCollapseAlways().ExpandedSize(core.Cell{Obj: o}) }
			b.ReportMetric(last.AvgDerefSetSize(expand), "derefsize")
		})
	}
}

// BenchmarkFrontend times the front-end pipeline itself (preprocess, parse,
// typecheck, normalize) per corpus program, and on the small GenerateLarge
// program of BenchmarkPreprocess, where sema and lowering are most of the
// front end.
func BenchmarkFrontend(b *testing.B) {
	type program struct {
		name string
		src  []frontend.Source
	}
	var progs []program
	for _, name := range []string{"allroots", "compiler", "bc", "less"} {
		src, err := corpus.Source(name)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, program{name, src})
	}
	progs = append(progs, program{"large-24x250", corpus.GenerateLarge(largeBenchParams)})
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := frontend.Load(p.src, frontend.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// largeBenchParams is a GenerateLarge program of the large benchmark's
// shape at 24 chains of 250 links.
var largeBenchParams = corpus.LargeParams{NChains: 24, ChainLen: 250, NTargets: 256, NFields: 8, CrossEvery: 16, Seed: 1}

// BenchmarkPreprocess times the preprocessor alone, with -benchmem its
// allocation: on the compiler corpus program, and on a small
// GenerateLarge program of the large benchmark's shape (24 chains of 250
// links), where nearly every line is macro-free text.
func BenchmarkPreprocess(b *testing.B) {
	compiler, err := corpus.Source("compiler")
	if err != nil {
		b.Fatal(err)
	}
	large := corpus.GenerateLarge(largeBenchParams)
	for _, c := range []struct {
		name string
		src  []frontend.Source
	}{{"compiler", compiler}, {"large-24x250", large}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range c.src {
					if _, err := pp.New(pp.Config{}).Process(s.Name, []byte(s.Text)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
