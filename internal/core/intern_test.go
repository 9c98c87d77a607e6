package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

// TestCellTableOrder checks that the slot-indexed cell table hands out the
// same ids, in the same first-sight order, as a map-based interner fed the
// same solve: the per-cell order the graph snapshot, the schedulers and the
// renderers see depends on it.
func TestCellTableOrder(t *testing.T) {
	type program struct {
		name string
		src  []frontend.Source
	}
	var programs []program
	names := corpus.SortedByGroup()
	if testing.Short() {
		names = names[:4]
	}
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name, src})
	}
	if !testing.Short() {
		programs = append(programs,
			program{"casts", corpus.Generate(corpus.GenParams{NStructs: 24, NFields: 8, NObjects: 12, NDerefs: 600, CastDensity: 25, Seed: 1})},
			program{"large", corpus.GenerateLarge(corpus.DefaultLargeParams())})
	}
	for _, p := range programs {
		name := p.name
		res, err := frontend.Load(p.src, frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, sname := range metrics.StrategyNames {
			t.Run(name+"/"+sname, func(t *testing.T) {
				got := core.InternedCells(core.Analyze(res.IR, metrics.NewStrategy(sname, res.Layout)))
				want := core.InternedCells(core.AnalyzeMapInterned(res.IR, metrics.NewStrategy(sname, res.Layout), core.Options{}))
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%d cells vs %d; first difference at id %d", len(got), len(want), i)
				}
			})
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []core.Cell) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
