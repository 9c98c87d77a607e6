package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// ringSrc builds a C program whose solve cost scales with n: n pointer
// variables copied around a ring, each also taking the address of several
// targets, so every address fact must travel the whole ring.
func ringSrc(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "int t0, t1, t2, t3;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int *p%d;\n", i)
	}
	b.WriteString("void f(void) {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tp%d = &t%d;\n", i, i%4)
		fmt.Fprintf(&b, "\tp%d = p%d;\n", (i+1)%n, i)
	}
	b.WriteString("}\n")
	return b.String()
}

func TestLimitMaxSteps(t *testing.T) {
	r := loadIR(t, ringSrc(200), nil)
	for name, strat := range strategies(r.Layout) {
		res := core.AnalyzeContext(context.Background(), r.IR, strat,
			core.Options{Limits: core.Limits{MaxSteps: 10}})
		if res.Incomplete == nil {
			t.Fatalf("%s: expected incomplete result", name)
		}
		if res.Incomplete.Reason != core.StopMaxSteps {
			t.Errorf("%s: reason = %s, want %s", name, res.Incomplete.Reason, core.StopMaxSteps)
		}
		if res.Steps > 10 {
			t.Errorf("%s: %d steps, limit 10", name, res.Steps)
		}
		if !errors.Is(res.Incomplete.AsError(), fault.ErrLimit) {
			t.Errorf("%s: stop error is not ErrLimit: %v", name, res.Incomplete.AsError())
		}
	}
}

func TestLimitMaxFacts(t *testing.T) {
	r := loadIR(t, ringSrc(100), nil)
	for name, strat := range strategies(r.Layout) {
		res := core.AnalyzeContext(context.Background(), r.IR, strat,
			core.Options{Limits: core.Limits{MaxFacts: 5}})
		if res.Incomplete == nil || res.Incomplete.Reason != core.StopMaxFacts {
			t.Fatalf("%s: incomplete = %v, want max-facts", name, res.Incomplete)
		}
		if got := res.TotalFacts(); got > 5 {
			t.Errorf("%s: %d facts recorded, limit 5", name, got)
		}
	}
}

func TestLimitMaxCells(t *testing.T) {
	r := loadIR(t, ringSrc(100), nil)
	for name, strat := range strategies(r.Layout) {
		res := core.AnalyzeContext(context.Background(), r.IR, strat,
			core.Options{Limits: core.Limits{MaxCells: 3}})
		if res.Incomplete == nil || res.Incomplete.Reason != core.StopMaxCells {
			t.Fatalf("%s: incomplete = %v, want max-cells", name, res.Incomplete)
		}
	}
}

// Partial results must be a subset of the fixpoint: every fact derived under
// a limit must also be in the unlimited run's fact set.
func TestPartialResultIsSoundSubset(t *testing.T) {
	r := loadIR(t, ringSrc(60), nil)
	for name, strat := range strategies(r.Layout) {
		full := core.Analyze(r.IR, strat)
		if full.Incomplete != nil {
			t.Fatalf("%s: unlimited run incomplete", name)
		}
		for _, maxSteps := range []int{1, 5, 25} {
			lim := core.AnalyzeContext(context.Background(), r.IR,
				strategies(r.Layout)[name],
				core.Options{Limits: core.Limits{MaxSteps: maxSteps}})
			for _, c := range lim.SortedCells() {
				fullSet := full.PointsToCell(c)
				for tgt := range lim.PointsToCell(c) {
					if !fullSet.Has(tgt) {
						t.Errorf("%s (MaxSteps=%d): partial fact %s -> %s not in fixpoint",
							name, maxSteps, c, tgt)
					}
				}
			}
		}
	}
}

func TestZeroLimitsReachFixpoint(t *testing.T) {
	r := loadIR(t, ringSrc(50), nil)
	for name, strat := range strategies(r.Layout) {
		// NoPrepass: the offline prepass collapses the whole ring into one
		// cell, which can legitimately leave zero worklist drains; this
		// test asserts the classic fixpoint actually stepped.
		res := core.AnalyzeContext(context.Background(), r.IR, strat, core.Options{NoPrepass: true})
		if res.Incomplete != nil {
			t.Errorf("%s: zero limits produced incomplete result: %s", name, res.Incomplete)
		}
		if res.Steps == 0 {
			t.Errorf("%s: no steps counted", name)
		}
	}
}

func TestCanceledContext(t *testing.T) {
	r := loadIR(t, ringSrc(100), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled before the run starts
	for name, strat := range strategies(r.Layout) {
		res := core.AnalyzeContext(ctx, r.IR, strat, core.Options{})
		if res.Incomplete == nil || !res.Incomplete.Canceled() {
			t.Fatalf("%s: incomplete = %v, want canceled", name, res.Incomplete)
		}
		err := res.Incomplete.AsError()
		if !errors.Is(err, fault.ErrCanceled) {
			t.Errorf("%s: stop error is not ErrCanceled: %v", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: stop error does not unwrap to context.Canceled", name)
		}
	}
}

func TestDeadlineExceeded(t *testing.T) {
	r := loadIR(t, ringSrc(400), nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	res := core.AnalyzeContext(ctx, r.IR, core.NewCIS(), core.Options{})
	if res.Incomplete == nil || res.Incomplete.Reason != core.StopDeadline {
		t.Fatalf("incomplete = %v, want deadline", res.Incomplete)
	}
	if !errors.Is(res.Incomplete.AsError(), context.DeadlineExceeded) {
		t.Error("stop error does not unwrap to context.DeadlineExceeded")
	}
}

func TestBatchIsolatesPanickingJob(t *testing.T) {
	r := loadIR(t, ringSrc(20), nil)
	jobs := []core.BatchJob{
		{Prog: r.IR, Strat: core.NewCIS()},
		{Prog: nil, Strat: core.NewCIS()}, // nil program panics in the solver
		{Prog: r.IR, Strat: core.NewCollapseAlways()},
	}
	results, errs := core.AnalyzeBatchContext(context.Background(), jobs, 2)
	if results[0] == nil || errs[0] != nil {
		t.Errorf("job 0 should succeed: res=%v err=%v", results[0], errs[0])
	}
	if results[1] != nil || errs[1] == nil {
		t.Fatalf("job 1 should fault: res=%v err=%v", results[1], errs[1])
	}
	if !errors.Is(errs[1], fault.ErrInternal) {
		t.Errorf("job 1 error is not ErrInternal: %v", errs[1])
	}
	var fe *fault.Error
	if !errors.As(errs[1], &fe) || len(fe.Stack) == 0 {
		t.Errorf("job 1 fault carries no stack")
	}
	if results[2] == nil || errs[2] != nil {
		t.Errorf("job 2 should still run after job 1 panicked: res=%v err=%v", results[2], errs[2])
	}
}

func TestBatchLimitTrippedJobIsolates(t *testing.T) {
	r := loadIR(t, ringSrc(100), nil)
	jobs := []core.BatchJob{
		{Prog: r.IR, Strat: core.NewCIS(), Opts: core.Options{Limits: core.Limits{MaxSteps: 3}}},
		{Prog: r.IR, Strat: core.NewCollapseOnCast()},
	}
	results, errs := core.AnalyzeBatchContext(context.Background(), jobs, 2)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("limit trips are not errors: %v %v", errs[0], errs[1])
	}
	if results[0].Incomplete == nil || results[0].Incomplete.Reason != core.StopMaxSteps {
		t.Errorf("job 0 incomplete = %v, want max-steps", results[0].Incomplete)
	}
	if results[1].Incomplete != nil {
		t.Errorf("job 1 should complete: %v", results[1].Incomplete)
	}
}

func TestBatchCancellationDrainsQuickly(t *testing.T) {
	r := loadIR(t, ringSrc(60), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var jobs []core.BatchJob
	for i := 0; i < 16; i++ {
		jobs = append(jobs, core.BatchJob{Prog: r.IR, Strat: core.NewCIS()})
	}
	start := time.Now()
	results, errs := core.AnalyzeBatchContext(ctx, jobs, 2)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("canceled batch took %v", elapsed)
	}
	for i := range jobs {
		if errs[i] != nil {
			t.Errorf("job %d errored: %v", i, errs[i])
		}
		if results[i] == nil || results[i].Incomplete == nil || !results[i].Incomplete.Canceled() {
			t.Errorf("job %d not canceled: %+v", i, results[i])
		}
	}
}
