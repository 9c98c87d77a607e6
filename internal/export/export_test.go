package export_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/export"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

const src = `
struct S { int *a; } s;
int x, *p;
void f(void) {
	s.a = &x;
	p = s.a;
	x = *p;
}`

func analyze(t *testing.T) (*frontend.Result, *core.Result) {
	t.Helper()
	r, err := frontend.Load([]frontend.Source{{Name: "t.c", Text: src}}, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, core.Analyze(r.IR, core.NewCIS())
}

func TestResultJSON(t *testing.T) {
	fr, res := analyze(t)
	_ = fr
	j := export.Result(res, true)
	if j.Strategy != "common-initial-seq" {
		t.Errorf("strategy = %q", j.Strategy)
	}
	if j.TotalFacts == 0 || j.AvgDerefSize <= 0 {
		t.Errorf("facts=%d avg=%v", j.TotalFacts, j.AvgDerefSize)
	}
	if len(j.Sets) == 0 {
		t.Fatal("no sets with includeSets=true")
	}
	// Temps must be filtered.
	for _, s := range j.Sets {
		if len(s.Cell) > 3 && s.Cell[:3] == "tmp" {
			t.Errorf("temp leaked: %s", s.Cell)
		}
	}
	// Without sets.
	if j2 := export.Result(res, false); len(j2.Sets) != 0 {
		t.Error("sets included with includeSets=false")
	}
}

func TestWriteResultValidJSON(t *testing.T) {
	fr, res := analyze(t)
	var buf bytes.Buffer
	if err := export.WriteResult(&buf, res, fr.IR, true); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := doc["sites"]; !ok {
		t.Error("sites missing")
	}
	sites := doc["sites"].([]interface{})
	if len(sites) == 0 {
		t.Error("no sites serialized")
	}
}

func TestWriteEvaluation(t *testing.T) {
	p, err := metrics.Measure("tiny", []frontend.Source{{Name: "t.c", Text: src}},
		frontend.Options{}, metrics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := export.WriteEvaluation(&buf, "lp64", []*metrics.Program{p}); err != nil {
		t.Fatal(err)
	}
	var ev export.Evaluation
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if ev.ABI != "lp64" || len(ev.Programs) != 1 {
		t.Fatalf("ev = %+v", ev)
	}
	prog := ev.Programs[0]
	if prog.Name != "tiny" || len(prog.Runs) != 4 {
		t.Errorf("prog = %+v", prog)
	}
	for name, run := range prog.Runs {
		if run.DurationNS <= 0 {
			t.Errorf("%s: duration %d", name, run.DurationNS)
		}
	}
}

func TestRoundTripStableOrder(t *testing.T) {
	_, res := analyze(t)
	a := export.Result(res, true)
	b := export.Result(res, true)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Error("export not deterministic")
	}
}

// TestRunJSONCarriesEveryCounter checks the export document against the
// counter schema: a solved corpus run (parallel, peak sampling on) shows
// every nonzero counter under its declared name with its value, every key
// is a run field or a declared counter, and a run with every counter set
// has a key for every entry.
func TestRunJSONCarriesEveryCounter(t *testing.T) {
	src, err := corpus.Source("compiler")
	if err != nil {
		t.Fatal(err)
	}
	p, err := metrics.Measure("compiler", src, frontend.Options{},
		metrics.Options{SolveParallelism: 8, TrackPeakMem: true})
	if err != nil {
		t.Fatal(err)
	}
	runKeys := func(run export.RunJSON) map[string]any {
		raw, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fixed := map[string]bool{"strategy": true, "avg_deref_size": true, "total_facts": true, "duration_ns": true, "steps": true}
	for name, run := range export.Program(p).Runs {
		m := runKeys(run)
		for _, c := range core.Counters {
			v := *c.Field(&run.Recorder, &run.WaveStats)
			got, ok := m[c.Name]
			if (v != 0 && !ok) || (ok && got != float64(v)) {
				t.Errorf("%s: %s = %v (present %v), run has %d", name, c.Name, got, ok, v)
			}
			delete(m, c.Name)
		}
		for k := range m {
			if !fixed[k] {
				t.Errorf("%s: key %q is neither a run field nor a declared counter", name, k)
			}
		}
	}
	var full export.RunJSON
	for _, c := range core.Counters {
		*c.Field(&full.Recorder, &full.WaveStats) = 1
	}
	m := runKeys(full)
	for _, c := range core.Counters {
		if _, ok := m[c.Name]; !ok {
			t.Errorf("export JSON has no key for counter %s", c.Name)
		}
	}
}
