package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// cyclicProgram contains a two-variable copy cycle, so solving it collapses
// cells — through the offline prepass by default, or through online cycle
// elimination under NoPrepass — and populates the wave counters in /varz.
const cyclicProgram = `
int a, b;
int *p, *q;
int main(void) {
	p = &a;
	q = &b;
	p = q;
	q = p;
	return *p;
}
`

// jsonShape renders the key structure of a decoded JSON document: one
// sorted, indented line per key, with values reduced to their JSON type.
// Map-valued fields with dynamic keys (endpoints, histogram buckets) keep
// their keys — the test controls the traffic, so they are deterministic.
func jsonShape(sb *strings.Builder, v any, key, indent string) {
	switch t := v.(type) {
	case map[string]any:
		fmt.Fprintf(sb, "%s%s: object\n", indent, key)
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			jsonShape(sb, t[k], k, indent+"  ")
		}
	case []any:
		fmt.Fprintf(sb, "%s%s: array\n", indent, key)
	case string:
		fmt.Fprintf(sb, "%s%s: string\n", indent, key)
	case float64:
		fmt.Fprintf(sb, "%s%s: number\n", indent, key)
	case bool:
		fmt.Fprintf(sb, "%s%s: bool\n", indent, key)
	default:
		fmt.Fprintf(sb, "%s%s: null\n", indent, key)
	}
}

// TestVarzShapeGolden pins the /varz JSON shape — every key and its JSON
// type, including the solver's SCC/wave counters — against a checked-in
// golden file. Values are intentionally not compared (uptimes and latencies
// vary); a key appearing, disappearing or changing type is the contract
// break this test catches. Regenerate after intentional changes with:
//
//	UPDATE_VARZ_GOLDEN=1 go test ./internal/server -run TestVarzShapeGolden
func TestVarzShapeGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AnalyzeRequest{Sources: []SourceJSON{{Name: "cyclic.c", Text: cyclicProgram}}}
	if resp, raw := postJSON(t, ts.URL+"/v1/analyze", req); resp.StatusCode != 200 {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, raw)
	}

	v := varz(t, ts.URL)
	if v.Solver.Waves == 0 {
		t.Errorf("cyclic program did not run waves: %+v", v.Solver)
	}
	if v.Solver.SCCsFound == 0 && v.Solver.PrepCollapsed == 0 {
		t.Errorf("cyclic program collapsed nothing: %+v", v.Solver)
	}

	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	jsonShape(&sb, doc, "varz", "")
	got := []byte(sb.String())

	golden := filepath.Join("testdata", "varz_shape.golden")
	if os.Getenv("UPDATE_VARZ_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_VARZ_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/varz shape drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestVarzSolverCarriesEveryCounter checks /varz against the counter
// schema: after a corpus solve, the solver block has a key for every
// WaveStats counter, and decoding it back into Varz recovers each value.
func TestVarzSolverCarriesEveryCounter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, raw := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Corpus: "compiler"}); resp.StatusCode != 200 {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, raw)
	}
	var doc struct {
		Solver map[string]float64 `json:"solver"`
	}
	getJSON(t, ts.URL+"/varz", &doc)
	v := varz(t, ts.URL)
	if v.Solver.Solves != 1 || v.Solver.EdgeBatches == 0 {
		t.Fatalf("solver block after one corpus solve: %+v", v.Solver)
	}
	for _, c := range core.Counters {
		p := c.Field(nil, &v.Solver.WaveStats)
		if p == nil {
			continue // a Recorder counter: not a solver total
		}
		if got, ok := doc.Solver[c.Name]; !ok || got != float64(*p) {
			t.Errorf("/varz solver.%s = %v (present %v), decoded %d", c.Name, got, ok, *p)
		}
	}
}
