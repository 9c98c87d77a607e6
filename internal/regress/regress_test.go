package regress

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/export"
)

func TestBaselineParses(t *testing.T) {
	base, ok, err := Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("no baseline recorded")
	}
	if len(base.Programs) != 20 {
		t.Errorf("baseline has %d programs, want 20", len(base.Programs))
	}
}

// TestNoDrift is the regression net: the current analysis results must
// match the committed baseline exactly. After an intentional change, run
// `go run ./cmd/ptrregress -update` and review the diff.
func TestNoDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run")
	}
	base, ok, err := Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("no baseline recorded")
	}
	cur, err := Measure()
	if err != nil {
		t.Fatal(err)
	}
	drifts := Compare(base, cur)
	for _, d := range drifts {
		t.Errorf("drift: %s", d)
	}
}

func TestCompareDetectsDrift(t *testing.T) {
	mk := func() *export.Evaluation {
		return &export.Evaluation{
			ABI: "lp64",
			Programs: []export.ProgramJSON{{
				Name:     "p",
				NumStmts: 10,
				Runs: map[string]export.RunJSON{
					"cis": {TotalFacts: 100, AvgDerefSize: 1.5, Recorder: core.Recorder{LookupCalls: 7}},
				},
			}},
		}
	}
	base, cur := mk(), mk()
	if drifts := Compare(base, cur); len(drifts) != 0 {
		t.Fatalf("identical evals drifted: %v", drifts)
	}
	r := cur.Programs[0].Runs["cis"]
	r.TotalFacts = 101
	cur.Programs[0].Runs["cis"] = r
	drifts := Compare(base, cur)
	if len(drifts) != 1 || drifts[0].Field != "total_facts" {
		t.Fatalf("drifts = %v", drifts)
	}
	if !strings.Contains(drifts[0].String(), "total_facts") {
		t.Errorf("drift string = %q", drifts[0].String())
	}
}

func TestCompareDetectsAddedRemovedPrograms(t *testing.T) {
	base := &export.Evaluation{Programs: []export.ProgramJSON{{Name: "old"}}}
	cur := &export.Evaluation{Programs: []export.ProgramJSON{{Name: "new"}}}
	drifts := Compare(base, cur)
	if len(drifts) != 2 {
		t.Fatalf("drifts = %v", drifts)
	}
}

// TestCompareChecksEveryPureCounter bumps each pure counter in turn in a
// copy of the baseline — lookup_structs and resolve_structs, behind Figure
// 3's "% struct" columns, among them — and expects exactly that drift.
func TestCompareChecksEveryPureCounter(t *testing.T) {
	base, ok, err := Baseline()
	if err != nil || !ok {
		t.Fatalf("baseline: ok=%v err=%v", ok, err)
	}
	for _, c := range core.Counters {
		if c.Class != core.Pure {
			continue
		}
		cur, _, _ := Baseline()
		p := &cur.Programs[0]
		run := p.Runs["common-initial-seq"]
		*c.Field(&run.Recorder, &run.WaveStats) += 1
		p.Runs["common-initial-seq"] = run
		drifts := Compare(base, cur)
		if len(drifts) != 1 || drifts[0].Field != c.Name || drifts[0].Program != p.Name {
			t.Errorf("bumped %s: drifts = %v", c.Name, drifts)
		}
	}
}

// TestUpdateZeroesByClass records a baseline under a temporary root from a
// run with every counter set: machine counters are always zeroed, schedule
// counters only when the evaluation ran with intra-solve parallelism, and
// pure counters are kept.
func TestUpdateZeroesByClass(t *testing.T) {
	for _, par := range []int{1, 2} {
		root := t.TempDir()
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(BaselinePath)), 0o755); err != nil {
			t.Fatal(err)
		}
		run := export.RunJSON{Strategy: "cis", TotalFacts: 5, DurationNS: 7}
		for _, c := range core.Counters {
			*c.Field(&run.Recorder, &run.WaveStats) = 3
		}
		ev := &export.Evaluation{ABI: "lp64", SolveParallelism: par, Programs: []export.ProgramJSON{
			{Name: "p", Runs: map[string]export.RunJSON{"cis": run}},
		}}
		if err := Update(root, ev); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(root, BaselinePath))
		if err != nil {
			t.Fatal(err)
		}
		var got export.Evaluation
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		r := got.Programs[0].Runs["cis"]
		if r.DurationNS != 0 || r.TotalFacts != 5 {
			t.Errorf("par=%d: duration %d, facts %d", par, r.DurationNS, r.TotalFacts)
		}
		for _, c := range core.Counters {
			want := 3
			if c.Class == core.Machine || (c.Class == core.Schedule && par > 1) {
				want = 0
			}
			if v := *c.Field(&r.Recorder, &r.WaveStats); v != want {
				t.Errorf("par=%d: %s (%s) = %d, want %d", par, c.Name, c.Class, v, want)
			}
		}
	}
}
