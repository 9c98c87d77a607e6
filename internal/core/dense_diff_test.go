package core_test

// Differential test for the dense CellID/Bits solver rewrite: AnalyzeWith
// (dense) and AnalyzeReference (the retained map-based solver, refsolver.go)
// must agree exactly — same SortedCells dump, same Figure-6 fact count, same
// Figure-4 dereference sizes, same Figure-3 logical-call instrumentation —
// on every corpus program, under all four strategies.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

// denseFactDump renders a result as the canonical sorted fact listing.
func denseFactDump(res *core.Result) string {
	var sb strings.Builder
	for _, c := range res.SortedCells() {
		sb.WriteString(c.String())
		sb.WriteString(" -> {")
		for i, t := range res.PointsToCell(c).Sorted() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.String())
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func recorderLine(r *core.Recorder) string {
	return fmt.Sprintf("lk=%d lkS=%d lkM=%d rs=%d rsS=%d rsM=%d",
		r.LookupCalls, r.LookupStructs, r.LookupMismatches,
		r.ResolveCalls, r.ResolveStructs, r.ResolveMismatches)
}

func TestDenseSolverMatchesReference(t *testing.T) {
	names := corpus.SortedByGroup()
	if testing.Short() {
		names = names[:4]
	}
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sname := range metrics.StrategyNames {
			denseStrat := metrics.NewStrategy(sname, res.Layout)
			dense := core.Analyze(res.IR, denseStrat)
			refStrat := metrics.NewStrategy(sname, res.Layout)
			ref := core.AnalyzeReference(res.IR, refStrat, core.Options{})
			label := name + "/" + sname
			// The memo=false subtest is the comparison; memo=true (the
			// names date from the removed lookup/resolve memo) pins that
			// nothing counts memo traffic any more.
			t.Run(label+"/memo=false", func(t *testing.T) {
				if dense.Incomplete != nil || ref.Incomplete != nil {
					t.Fatalf("unexpected incomplete run: dense=%v ref=%v",
						dense.Incomplete, ref.Incomplete)
				}
				if d, r := dense.TotalFacts(), ref.TotalFacts(); d != r {
					t.Errorf("TotalFacts: dense=%d ref=%d", d, r)
				}
				if d, r := dense.AvgDerefSetSize(), ref.AvgDerefSetSize(); d != r {
					t.Errorf("AvgDerefSetSize: dense=%v ref=%v", d, r)
				}
				if d, r := denseFactDump(dense), denseFactDump(ref); d != r {
					t.Errorf("fact dump mismatch:\n--- dense ---\n%s--- reference ---\n%s", d, r)
				}
				if d, r := recorderLine(denseStrat.Recorder()), recorderLine(refStrat.Recorder()); d != r {
					t.Errorf("Figure-3 counters: dense(%s) ref(%s)", d, r)
				}
			})
			t.Run(label+"/memo=true", func(t *testing.T) {
				for _, r := range []*core.Recorder{denseStrat.Recorder(), refStrat.Recorder()} {
					if r.LookupCacheHits+r.LookupCacheMisses+r.ResolveCacheHits+r.ResolveCacheMisses != 0 {
						t.Errorf("memo counters moved: %+v", *r)
					}
				}
			})
		}
	}
}
