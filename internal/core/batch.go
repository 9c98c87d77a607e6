package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/ir"
)

// BatchJob is one analysis to run as part of AnalyzeBatch. Programs may be
// shared between jobs (the solver only reads them), but every job MUST carry
// its own Strategy instance: strategies hold per-run state (the Recorder and
// per-object caches) and are not safe for concurrent use.
type BatchJob struct {
	Prog  *ir.Program
	Strat Strategy
	Opts  Options
}

// AnalyzeBatch runs the jobs across a pool of parallelism workers and
// returns their results indexed exactly like jobs, so output ordering is
// deterministic regardless of scheduling. parallelism <= 0 selects
// GOMAXPROCS. The solver itself is sequential per job; the speedup comes
// from fanning independent (program, strategy) pairs — the shape of the
// paper's evaluation, which runs four instances over twenty programs.
//
// A job that panics leaves a nil slot in the returned slice; use
// AnalyzeBatchContext to also receive the per-job faults (and cancellation).
func AnalyzeBatch(jobs []BatchJob, parallelism int) []*Result {
	results, _ := AnalyzeBatchContext(context.Background(), jobs, parallelism)
	return results
}

// AnalyzeBatchContext is AnalyzeBatch under a context, with per-job fault
// isolation. results[i] and errs[i] describe job i:
//
//   - a job that completes (including limit-tripped jobs, whose Result
//     carries Incomplete) fills results[i] and leaves errs[i] nil;
//   - a job that panics leaves results[i] nil and records the recovered
//     KindInternal fault in errs[i] — the worker survives and the pool
//     keeps draining the remaining jobs;
//   - canceling ctx stops in-flight solvers (partial results with
//     Incomplete set) and makes not-yet-started jobs return immediately
//     the same way; cancellation is reported on the Result, not in errs.
func AnalyzeBatchContext(ctx context.Context, jobs []BatchJob, parallelism int) ([]*Result, []error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return results, errs
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	one := func(i int) {
		defer fault.Recover("batch", &errs[i])
		j := jobs[i]
		results[i] = AnalyzeContext(ctx, j.Prog, j.Strat, j.Opts)
	}
	if parallelism == 1 {
		for i := range jobs {
			one(i)
		}
		return results, errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
	return results, errs
}
