package regress

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

// strategyGolden is one (program, instance) entry of the strategy golden
// file: the SHA-256 of the sorted fact dump and the Figure-3 counter line.
type strategyGolden struct {
	Program  string `json:"program"`
	Strategy string `json:"strategy"`
	Facts    string `json:"facts_sha256"`
	Fig3     string `json:"fig3"`
}

// goldenPrograms are the cast-heavy generated programs the strategy golden
// pins: the casts benchmark's parameters at seeds 1-3, plus the generator's
// default (tiny) size.
func goldenPrograms() []struct {
	name string
	p    corpus.GenParams
} {
	var out []struct {
		name string
		p    corpus.GenParams
	}
	for seed := uint32(1); seed <= 3; seed++ {
		p := corpus.GenParams{NStructs: 24, NFields: 8, NObjects: 12, NDerefs: 600, CastDensity: 25, Seed: seed}
		out = append(out, struct {
			name string
			p    corpus.GenParams
		}{fmt.Sprintf("casts-seed%d", seed), p})
	}
	out = append(out, struct {
		name string
		p    corpus.GenParams
	}{"tiny-seed1", corpus.DefaultGenParams()})
	return out
}

// strategyFacts renders every fact of a solve as a sorted "cell -> target"
// list (temporaries included) and returns its SHA-256.
func strategyFacts(res *core.Result) string {
	var lines []string
	for _, c := range res.SortedCells() {
		for _, t := range res.PointsToCell(c).Sorted() {
			lines = append(lines, c.String()+" -> "+t.String())
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fig3Line(r *core.Recorder) string {
	return fmt.Sprintf("lookup %d/%d/%d resolve %d/%d/%d",
		r.LookupCalls, r.LookupStructs, r.LookupMismatches,
		r.ResolveCalls, r.ResolveStructs, r.ResolveMismatches)
}

// TestStrategyGolden pins the four instances' answers and Figure-3 counters
// on generated cast-heavy programs to a file recorded before the
// field-based strategies moved from dotted path strings to per-type leaf
// tables. Unlike the dense-vs-reference differential, which runs the same
// Strategy objects on both solvers, it checks the strategies themselves: a
// wrong lookup, resolve or smear changes a digest here.
//
// The file is not regenerated on purpose. On a mismatch the test prints
// the entries it computed; replace the file with them only when the change
// in answers is intended and reviewed.
func TestStrategyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the casts benchmark program three times")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "strategy_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []strategyGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var got []strategyGolden
	for _, gp := range goldenPrograms() {
		res, err := frontend.Load(corpus.Generate(gp.p), frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		for _, name := range []string{"offsets", "collapse-always", "collapse-on-cast", "common-initial-seq"} {
			strat := metrics.NewStrategy(name, res.Layout)
			r := core.Analyze(res.IR, strat)
			got = append(got, strategyGolden{
				Program:  gp.name,
				Strategy: name,
				Facts:    strategyFacts(r),
				Fig3:     fig3Line(strat.Recorder()),
			})
		}
	}
	bad := len(got) != len(want)
	if bad {
		t.Errorf("golden has %d entries, computed %d", len(want), len(got))
	}
	for i := range got {
		if i < len(want) && got[i] != want[i] {
			bad = true
			t.Errorf("%s/%s:\n got  %+v\n want %+v", got[i].Program, got[i].Strategy, got[i], want[i])
		}
	}
	if bad {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("computed entries:\n%s", out)
	}
}
