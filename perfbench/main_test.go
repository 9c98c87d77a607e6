package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/pointsto"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclarationsMatchBenchmarkFile holds the metric tables in main.go and
// BENCHMARK.json equal, names and units.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, declared %v", e2e, endToEnd)
	}
	if !equalDefs(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, declared %v", layer, perLayer)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not know", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks the result line: every declared metric with its unit,
// every op checked and correct.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "5", "--seconds", "0.2",
					"--trace", trace, "--size", "tiny", "--trace-dir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatal(err)
				}
				if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
					t.Fatalf("result keys = %v", raw)
				}
				var res resultJSON
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "0" {
					if v := res.Metrics["ok_frac"].Value; v != 1 {
						t.Errorf("ok_frac = %v", v)
					}
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestOracleRejectsTamperedDigest checks that the oracle accepts the
// library's own answer and rejects a tampered digest or dump.
func TestOracleRejectsTamperedDigest(t *testing.T) {
	fsrc, err := corpus.Source("compiler")
	if err != nil {
		t.Fatal(err)
	}
	src := facadeSources(fsrc)
	or := newOracle()
	for _, s := range pointsto.Strategies() {
		rep, err := pointsto.Analyze(src, pointsto.Config{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		key := or.key("compiler", src, s)
		if err := or.solve(); err != nil {
			t.Fatal(err)
		}
		sets := rep.Sets()
		got := setsDigest(sets)
		if !or.check(key, got) {
			t.Fatalf("%s: the library's own answer was rejected", s)
		}
		tampered := got
		tampered[0] ^= 1
		if or.check(key, tampered) {
			t.Errorf("%s: a tampered digest was accepted", s)
		}
		sets[len(sets)-1].Targets = append(sets[len(sets)-1].Targets, "extra")
		if or.check(key, setsDigest(sets)) {
			t.Errorf("%s: a dump with an extra target was accepted", s)
		}
		if or.check("compiler/unknown", got) {
			t.Errorf("%s: an unregistered key was accepted", s)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v", got)
	}
	if got := geomean([]float64{2, 8, 0}); got != 4 {
		t.Errorf("geomean = %v", got)
	}
}
