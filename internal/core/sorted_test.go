package core_test

// Satellite coverage for display ordering under the dense representation:
// CellSet.Sorted's comparator, and Result.SortedCells determinism through
// the lazy map-view materialization — including on an Incomplete partial
// result, where materialization runs over whatever fact subset the aborted
// solver left behind.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cc/types"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
)

func TestCellSetSortedOrdering(t *testing.T) {
	rec := types.NewUniverse().NewRecord("r", false)
	rec.Record.Fields = []types.Field{{Name: "f", Type: types.PointerTo(nil), BitWidth: -1}}
	rec.Record.Complete = true
	oa := &ir.Object{ID: 3, Name: "a", Type: rec}
	fieldF, ok := core.CellAt(oa, 0, "f", false)
	if !ok {
		t.Fatal("CellAt(a.f) failed")
	}
	oa2 := &ir.Object{ID: 7, Name: "a"} // same name, later ID
	ob := &ir.Object{ID: 1, Name: "b"}
	want := []core.Cell{
		{Obj: oa},                      // name "a", ID 3, no selector
		{Obj: oa, Off: 0, ByOff: true}, // offset cell sorts after the bare cell
		fieldF,
		{Obj: oa, Off: 4, ByOff: true},
		{Obj: oa2}, // same name, higher ID
		{Obj: ob},
		{Obj: ob, Off: 8, ByOff: true},
	}
	set := make(core.CellSet, len(want))
	for _, c := range want {
		set.Add(c)
	}
	got := set.Sorted()
	if len(got) != len(want) {
		t.Fatalf("Sorted returned %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sorted[%d] = %v (%s), want %v (%s)", i, got[i], got[i], want[i], want[i])
		}
	}
}

func loadSorted(t *testing.T) *frontend.Result {
	t.Helper()
	const src = `
struct S { int *a; int *b; } s, t;
int x, y, *p, *q;
int main(void) {
	s.a = &x; s.b = &y;
	t = s;
	p = s.a; q = t.b;
	return 0;
}`
	r, err := frontend.Load([]frontend.Source{{Name: "t.c", Text: src}}, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func dumpSortedCells(res *core.Result) string {
	var sb strings.Builder
	for _, c := range res.SortedCells() {
		sb.WriteString(c.String())
		sb.WriteString(";")
	}
	return sb.String()
}

// TestSortedCellsDeterministic runs the same analysis repeatedly and reads
// SortedCells from concurrent goroutines: every observation — within a
// result (racing the one-time materialization) and across independent runs —
// must be identical.
func TestSortedCellsDeterministic(t *testing.T) {
	r := loadSorted(t)
	var first string
	for run := 0; run < 4; run++ {
		res := core.Analyze(r.IR, core.NewOffsets(r.Layout))
		var wg sync.WaitGroup
		got := make([]string, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = dumpSortedCells(res)
			}(i)
		}
		wg.Wait()
		for i, g := range got {
			if g != got[0] {
				t.Fatalf("run %d: concurrent SortedCells disagree:\n[0] %s\n[%d] %s", run, got[0], i, g)
			}
		}
		if run == 0 {
			first = got[0]
			if first == "" {
				t.Fatal("empty SortedCells dump")
			}
		} else if got[0] != first {
			t.Fatalf("run %d: SortedCells differ across runs:\n%s\n%s", run, first, got[0])
		}
	}
}

// TestSortedCellsIncomplete exercises lazy materialization on a partial
// result: an aborted run must still expose a stable, deterministic view of
// the facts it did derive.
func TestSortedCellsIncomplete(t *testing.T) {
	r := loadSorted(t)
	opts := core.Options{Limits: core.Limits{MaxFacts: 3}}
	var first string
	for run := 0; run < 4; run++ {
		res := core.AnalyzeWith(r.IR, core.NewOffsets(r.Layout), opts)
		if res.Incomplete == nil {
			t.Fatal("expected an incomplete result under MaxFacts=3")
		}
		if res.Incomplete.Reason != core.StopMaxFacts {
			t.Fatalf("stop reason = %v, want StopMaxFacts", res.Incomplete.Reason)
		}
		if got := res.TotalFacts(); got > 3 {
			t.Fatalf("partial result has %d facts, limit 3", got)
		}
		dump := dumpSortedCells(res)
		// The view must agree with per-cell queries and repeat identically.
		for _, c := range res.SortedCells() {
			if res.PointsToCell(c).Len() == 0 {
				t.Fatalf("SortedCells lists %s with an empty set", c)
			}
		}
		if d2 := dumpSortedCells(res); d2 != dump {
			t.Fatalf("repeated SortedCells differ on the same result")
		}
		if run == 0 {
			first = dump
		} else if dump != first {
			t.Fatalf("run %d: partial SortedCells differ across runs:\n%s\n%s", run, first, dump)
		}
	}
}
