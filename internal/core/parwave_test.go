package core_test

// Tests for the parallel wave executor (parwave.go): the shard/steal/barrier
// schedule must be observable only through the ParWave* counters — fact
// dumps, TotalFacts, AvgDerefSetSize and the Figure-3 counters stay
// byte-identical to the sequential executor and to the map-based reference
// solver, corpus-wide, at any Parallelism and any GOMAXPROCS. Run with
// -race: the corpus differential doubles as the data-race probe for the
// shard ownership protocol.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

// parallelCorpus loads the differential corpus (truncated under -short).
func parallelCorpus(t *testing.T) []string {
	t.Helper()
	names := corpus.SortedByGroup()
	if testing.Short() {
		names = names[:4]
	}
	return names
}

// TestParallelSolverMatchesSequential is the corpus-wide differential:
// every program × exact-edge strategy × Parallelism ∈ {2, 8} against both
// the sequential dense solver and AnalyzeReference.
func TestParallelSolverMatchesSequential(t *testing.T) {
	sawParallel := false
	for _, name := range parallelCorpus(t) {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sname := range metrics.StrategyNames {
			t.Run(name+"/"+sname, func(t *testing.T) {
				mkStrat := func() core.Strategy {
					return metrics.NewStrategy(sname, res.Layout)
				}
				seqStrat := mkStrat()
				seq := core.Analyze(res.IR, seqStrat)
				refStrat := mkStrat()
				ref := core.AnalyzeReference(res.IR, refStrat, core.Options{})
				if seq.Incomplete != nil || ref.Incomplete != nil {
					t.Fatalf("unexpected incomplete run: seq=%v ref=%v",
						seq.Incomplete, ref.Incomplete)
				}
				seqDump := denseFactDump(seq)
				refDump := denseFactDump(ref)
				if seqDump != refDump {
					t.Fatal("sequential dense solver disagrees with reference")
				}
				for _, par := range []int{2, 8} {
					parStrat := mkStrat()
					got := core.AnalyzeWith(res.IR, parStrat, core.Options{Parallelism: par})
					if got.Incomplete != nil {
						t.Fatalf("par=%d: incomplete: %v", par, got.Incomplete)
					}
					if got.Wave.ParWaves > 0 {
						sawParallel = true
					}
					if d := denseFactDump(got); d != seqDump {
						t.Errorf("par=%d: fact dump differs from sequential:\n--- parallel ---\n%s--- sequential ---\n%s",
							par, d, seqDump)
					}
					if g, w := got.TotalFacts(), seq.TotalFacts(); g != w {
						t.Errorf("par=%d: TotalFacts=%d, sequential=%d", par, g, w)
					}
					if g, w := got.AvgDerefSetSize(), seq.AvgDerefSetSize(); g != w {
						t.Errorf("par=%d: AvgDerefSetSize=%v, sequential=%v", par, g, w)
					}
					if g, w := recorderLine(parStrat.Recorder()), recorderLine(seqStrat.Recorder()); g != w {
						t.Errorf("par=%d: Figure-3 counters parallel(%s) sequential(%s)", par, g, w)
					}
				}
			})
		}
	}
	if !sawParallel {
		t.Error("no corpus run engaged the parallel executor (ParWaves == 0 everywhere)")
	}
}

// TestParallelDifferentialGOMAXPROCS re-runs the differential on the
// largest corpus program at GOMAXPROCS ∈ {1, 2, 8}: fact sets must be
// identical at every setting — the executor's shard layout is derived from
// Options.Parallelism, never from the runtime's processor count.
func TestParallelDifferentialGOMAXPROCS(t *testing.T) {
	src, err := corpus.Source("compiler")
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Load(src, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sname := range metrics.StrategyNames {
		seqStrat := metrics.NewStrategy(sname, res.Layout)
		seq := core.Analyze(res.IR, seqStrat)
		seqDump := denseFactDump(seq)
		seqRec := recorderLine(seqStrat.Recorder())
		for _, gmp := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(gmp)
			parStrat := metrics.NewStrategy(sname, res.Layout)
			got := core.AnalyzeWith(res.IR, parStrat, core.Options{Parallelism: 8})
			if got.Incomplete != nil {
				t.Fatalf("%s gomaxprocs=%d: incomplete: %v", sname, gmp, got.Incomplete)
			}
			if d := denseFactDump(got); d != seqDump {
				t.Errorf("%s gomaxprocs=%d: fact dump differs from sequential", sname, gmp)
			}
			if g := recorderLine(parStrat.Recorder()); g != seqRec {
				t.Errorf("%s gomaxprocs=%d: Figure-3 counters %s, sequential %s", sname, gmp, g, seqRec)
			}
		}
	}
}

// TestParallelDeterministicCounters pins the determinism contract for the
// schedule counters: at fixed Parallelism, repeated runs agree on every
// WaveStats counter outside the machine class, and on Steps.
func TestParallelDeterministicCounters(t *testing.T) {
	src, err := corpus.Source("compiler")
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Load(src, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	normalize := func(w core.WaveStats) core.WaveStats {
		core.Zero(nil, &w, core.Machine)
		return w
	}
	for _, sname := range metrics.StrategyNames {
		var first *core.Result
		for run := 0; run < 3; run++ {
			got := core.AnalyzeWith(res.IR, metrics.NewStrategy(sname, res.Layout),
				core.Options{Parallelism: 8})
			if got.Incomplete != nil {
				t.Fatalf("%s run %d: incomplete: %v", sname, run, got.Incomplete)
			}
			if first == nil {
				first = got
				if sname != "offsets" && got.Wave.ParWaves == 0 {
					t.Errorf("%s: compiler solve never went parallel: %+v", sname, got.Wave)
				}
				continue
			}
			if a, b := normalize(got.Wave), normalize(first.Wave); a != b {
				t.Errorf("%s run %d: WaveStats differ across runs:\n%+v\n%+v", sname, run, a, b)
			}
			if got.Steps != first.Steps {
				t.Errorf("%s run %d: Steps=%d, first run %d", sname, run, got.Steps, first.Steps)
			}
		}
	}
}

// TestParallelPureCounters pins the pure determinism class: every
// pure-class counter (Figure 3's, SCC collapse, the prepass) is identical at
// Parallelism 1 and 8 on every corpus program × strategy. The whole corpus
// runs even under -short; tier1 runs it under -race.
func TestParallelPureCounters(t *testing.T) {
	pure := func(rec core.Recorder, w core.WaveStats) (core.Recorder, core.WaveStats) {
		core.Zero(&rec, &w, core.Schedule)
		core.Zero(&rec, &w, core.Machine)
		return rec, w
	}
	sawParallel := false
	for _, name := range corpus.SortedByGroup() {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sname := range metrics.StrategyNames {
			var wantRec core.Recorder
			var wantWave core.WaveStats
			for _, par := range []int{1, 8} {
				strat := metrics.NewStrategy(sname, res.Layout)
				got := core.AnalyzeWith(res.IR, strat, core.Options{Parallelism: par})
				if got.Incomplete != nil {
					t.Fatalf("%s/%s par=%d: incomplete: %v", name, sname, par, got.Incomplete)
				}
				sawParallel = sawParallel || got.Wave.ParWaves > 0
				rec, wave := pure(*strat.Recorder(), got.Wave)
				if par == 1 {
					wantRec, wantWave = rec, wave
				} else if rec != wantRec || wave != wantWave {
					t.Errorf("%s/%s: pure counters differ at par=8:\n%+v %+v\npar=1:\n%+v %+v",
						name, sname, rec, wave, wantRec, wantWave)
				}
			}
		}
	}
	if !sawParallel {
		t.Error("no corpus run engaged the parallel executor (ParWaves == 0 everywhere)")
	}
}

// atomicCountdownCtx is countdownCtx's race-safe sibling: workers poll Err
// concurrently during a parallel wave, so the countdown must be atomic.
type atomicCountdownCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *atomicCountdownCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *atomicCountdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestParallelCancellationMidWave cancels parallel solves at a sweep of
// countdown depths. Every stopped run must report a canceled Incomplete
// whose recorded facts are a subset of the reference fixpoint (partial but
// sound — dropped pendings and rule work only lose derivations), and at
// least one cancellation must land after a parallel wave ran.
func TestParallelCancellationMidWave(t *testing.T) {
	src, err := corpus.Source("compiler")
	if err != nil {
		t.Fatal(err)
	}
	res, err := frontend.Load(src, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	strat := core.NewCIS()
	full := core.AnalyzeReference(res.IR, strat, core.Options{})
	if full.Incomplete != nil {
		t.Fatal("reference run incomplete")
	}
	stopped, midWave := false, false
	for polls := int64(1); polls <= 4096; polls *= 4 {
		ctx := &atomicCountdownCtx{Context: context.Background()}
		ctx.polls.Store(polls)
		// NoPrepass keeps the frontiers above parMinFrontier so a parallel
		// wave actually runs before the countdown lands.
		lim := core.AnalyzeContext(ctx, res.IR, core.NewCIS(), core.Options{Parallelism: 8, NoPrepass: true})
		if lim.Incomplete == nil {
			continue // solved before the countdown expired
		}
		stopped = true
		if !lim.Incomplete.Canceled() {
			t.Fatalf("polls=%d: reason = %s, want canceled", polls, lim.Incomplete.Reason)
		}
		if lim.Wave.ParWaves > 0 {
			midWave = true
		}
		lim.Cells(func(c core.Cell, set core.CellSet) {
			fullSet := full.PointsToCell(c)
			for tgt := range set {
				if !fullSet.Has(tgt) {
					t.Errorf("polls=%d: partial fact %s -> %s not in reference fixpoint", polls, c, tgt)
				}
			}
		})
	}
	if !stopped {
		t.Error("no countdown produced a canceled parallel solve")
	}
	if !midWave {
		t.Error("no cancellation landed after a parallel wave (ParWaves == 0 in every stopped run)")
	}
}

// TestParallelSmallFrontierFallback: tiny programs never cross
// parMinFrontier, so a Parallelism > 1 solve must still work (and stay on
// the sequential walk) — the executor is an optimization, not a mode.
func TestParallelSmallFrontierFallback(t *testing.T) {
	r := loadIR(t, mutualSrc(), nil)
	for name, strat := range exactStrategies() {
		res := core.AnalyzeWith(r.IR, strat, core.Options{Parallelism: 8})
		if res.Incomplete != nil {
			t.Fatalf("%s: incomplete: %v", name, res.Incomplete)
		}
		if res.Wave.ParWaves != 0 {
			t.Errorf("%s: tiny frontier went parallel: %+v", name, res.Wave)
		}
		if got := fmt.Sprintf("%s %s", targets(t, res, r.IR, "p"), targets(t, res, r.IR, "q")); got != "{a, b} {a, b}" {
			t.Errorf("%s: p q = %s, want {a, b} {a, b}", name, got)
		}
	}
}
