package core_test

// Tests for the constraint-graph layer (congraph.go): online cycle
// elimination must be observable only through WaveStats — fact dumps,
// TotalFacts, AvgDerefSetSize and the Figure-3 counters stay byte-identical
// to both the NoCycleElim ablation and the map-based reference solver.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
)

// mutualSrc builds two pointer variables copied into each other — the
// smallest possible copy-edge cycle — plus distinct address seeds on each
// side so both directions must propagate.
func mutualSrc() string {
	return `
int a, b;
int *p, *q;
void f(void) {
	p = &a;
	q = &b;
	p = q;
	q = p;
}
`
}

// exactStrategies returns the strategy instances that emit only exact
// (Size == 0) copy edges — the ones eligible for cycle elimination.
func exactStrategies() map[string]core.Strategy {
	return map[string]core.Strategy{
		"collapse-always":    core.NewCollapseAlways(),
		"collapse-on-cast":   core.NewCollapseOnCast(),
		"common-initial-seq": core.NewCIS(),
	}
}

// targets renders the points-to set of the named object as "{a, b}".
func targets(t *testing.T, res *core.Result, prog *ir.Program, name string) string {
	t.Helper()
	var names []string
	for _, c := range res.PointsTo(objByName(t, prog, name), nil).Sorted() {
		names = append(names, c.Obj.Name)
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ", ") + "}"
}

// factDump renders a result as the canonical sorted fact listing.
func waveFactDump(res *core.Result) string {
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

// noPrep pins a solve to the online cycle layer: the offline prepass would
// collapse these hand-built cycles before detectCycles ever sees them (its
// own coverage lives in prepass_test.go and the differential suites).
var noPrep = core.Options{NoPrepass: true}

func TestCycleCollapseMutualCopy(t *testing.T) {
	r := loadIR(t, mutualSrc(), nil)
	for name, strat := range exactStrategies() {
		res := core.AnalyzeWith(r.IR, strat, noPrep)
		if res.Incomplete != nil {
			t.Fatalf("%s: incomplete: %v", name, res.Incomplete)
		}
		if res.Wave.SCCsFound < 1 || res.Wave.CellsMerged < 1 {
			t.Errorf("%s: p<->q cycle not collapsed: %+v", name, res.Wave)
		}
		// Both members of the collapsed cycle observe the converged set.
		pSet := targets(t, res, r.IR, "p")
		qSet := targets(t, res, r.IR, "q")
		if pSet != "{a, b}" || qSet != "{a, b}" {
			t.Errorf("%s: p=%s q=%s, want {a, b} for both", name, pSet, qSet)
		}
	}
}

func TestCycleCollapseRing(t *testing.T) {
	r := loadIR(t, ringSrc(50), nil)
	for name, strat := range exactStrategies() {
		res := core.AnalyzeWith(r.IR, strat, noPrep)
		if res.Incomplete != nil {
			t.Fatalf("%s: incomplete: %v", name, res.Incomplete)
		}
		// The 50-element ring is one SCC: 49 cells fold into the
		// representative.
		if res.Wave.SCCsFound == 0 {
			t.Errorf("%s: ring SCC not found: %+v", name, res.Wave)
		}
		if res.Wave.CellsMerged < 49 {
			t.Errorf("%s: merged %d cells, want >= 49", name, res.Wave.CellsMerged)
		}
		if res.Wave.Waves == 0 {
			t.Errorf("%s: no waves recorded", name)
		}
		if res.Wave.FactCrossings < res.Wave.EdgeBatches {
			t.Errorf("%s: crossings %d < batches %d", name,
				res.Wave.FactCrossings, res.Wave.EdgeBatches)
		}
	}
}

// The layer is an observable-preserving optimization: with and without it,
// the dump, the fact count and the dereference metric are byte-identical,
// and both agree with the map-based reference solver.
func TestNoCycleElimAblationIdentical(t *testing.T) {
	srcs := map[string]string{
		"mutual": mutualSrc(),
		"ring":   ringSrc(40),
	}
	for sname, src := range srcs {
		r := loadIR(t, src, nil)
		for name, strat := range exactStrategies() {
			label := sname + "/" + name
			on := core.AnalyzeWith(r.IR, strat, noPrep)
			off := core.AnalyzeWith(r.IR, strat, core.Options{NoCycleElim: true, NoPrepass: true})
			ref := core.AnalyzeReference(r.IR, strat, core.Options{})
			if off.Wave.SCCsFound != 0 || off.Wave.CellsMerged != 0 || off.Wave.Waves != 0 {
				t.Errorf("%s: ablation still collapsed: %+v", label, off.Wave)
			}
			if on.Wave.CellsMerged == 0 {
				t.Errorf("%s: default run collapsed nothing", label)
			}
			dOn, dOff, dRef := waveFactDump(on), waveFactDump(off), waveFactDump(ref)
			if dOn != dOff {
				t.Errorf("%s: dump differs between cycle elim on/off\non:\n%s\noff:\n%s", label, dOn, dOff)
			}
			if dOn != dRef {
				t.Errorf("%s: dump differs from reference solver\ndense:\n%s\nref:\n%s", label, dOn, dRef)
			}
			if on.TotalFacts() != off.TotalFacts() || on.TotalFacts() != ref.TotalFacts() {
				t.Errorf("%s: TotalFacts on=%d off=%d ref=%d",
					label, on.TotalFacts(), off.TotalFacts(), ref.TotalFacts())
			}
			if on.AvgDerefSetSize() != off.AvgDerefSetSize() {
				t.Errorf("%s: AvgDerefSetSize on=%v off=%v",
					label, on.AvgDerefSetSize(), off.AvgDerefSetSize())
			}
		}
	}
}

// The Offsets instance emits Size != 0 range edges, so it is excluded from
// collapse by construction: its runs must never merge cells or run waves.
func TestOffsetsExcludedFromCollapse(t *testing.T) {
	r := loadIR(t, ringSrc(30), nil)
	res := core.Analyze(r.IR, core.NewOffsets(r.Layout))
	if res.Incomplete != nil {
		t.Fatalf("incomplete: %v", res.Incomplete)
	}
	if res.Wave.SCCsFound != 0 || res.Wave.CellsMerged != 0 || res.Wave.Waves != 0 {
		t.Errorf("offsets run used the wave scheduler: %+v", res.Wave)
	}
}

// Collapsing the ring must reduce batched edge traversals relative to the
// classic schedule on the same program — the headline win of the layer.
func TestWaveSchedulerSavesTraversals(t *testing.T) {
	r := loadIR(t, ringSrc(100), nil)
	strat := core.NewCollapseAlways()
	on := core.AnalyzeWith(r.IR, strat, noPrep)
	off := core.AnalyzeWith(r.IR, strat, core.Options{NoCycleElim: true, NoPrepass: true})
	if on.Wave.EdgeBatches >= off.Wave.EdgeBatches {
		t.Errorf("cycle elim did not reduce edge batches: on=%d off=%d",
			on.Wave.EdgeBatches, off.Wave.EdgeBatches)
	}
	if on.Wave.TraversalsSaved == 0 {
		t.Errorf("no traversals saved on a 100-ring: %+v", on.Wave)
	}
}

// Limits force the classic per-cell schedule: per-fact trip accounting is
// defined against it, so wave runs must not engage when any limit is set.
func TestLimitsDisableWaves(t *testing.T) {
	r := loadIR(t, ringSrc(60), nil)
	res := core.AnalyzeWith(r.IR, core.NewCIS(),
		core.Options{Limits: core.Limits{MaxSteps: 1 << 20}})
	if res.Incomplete != nil {
		t.Fatalf("incomplete under a generous limit: %v", res.Incomplete)
	}
	if res.Wave.CellsMerged != 0 || res.Wave.Waves != 0 {
		t.Errorf("limited run engaged the wave scheduler: %+v", res.Wave)
	}
}

// countdownCtx reports cancellation after its Err method has been polled a
// fixed number of times — a deterministic way to stop the solver mid-wave.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls <= 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// A wave cancelled mid-flight must still yield a sound partial report: every
// recorded fact is in the reference solver's fixpoint, and the reference run
// (acting as the resume oracle) is a superset that completes the answer.
func TestWaveCancellationSoundPartial(t *testing.T) {
	r := loadIR(t, ringSrc(120), nil)
	for name, strat := range exactStrategies() {
		full := core.AnalyzeReference(r.IR, strat, core.Options{})
		if full.Incomplete != nil {
			t.Fatalf("%s: reference run incomplete", name)
		}
		stopped := false
		for polls := 1; polls <= 6; polls++ {
			ctx := &countdownCtx{Context: context.Background(), polls: polls}
			lim := core.AnalyzeContext(ctx, r.IR, strat, core.Options{})
			if lim.Incomplete == nil {
				continue // solved before the countdown expired
			}
			stopped = true
			if !lim.Incomplete.Canceled() {
				t.Fatalf("%s (polls=%d): reason = %s, want canceled",
					name, polls, lim.Incomplete.Reason)
			}
			lim.Cells(func(c core.Cell, set core.CellSet) {
				fullSet := full.PointsToCell(c)
				for tgt := range set {
					if !fullSet.Has(tgt) {
						t.Errorf("%s (polls=%d): partial fact %s -> %s not in reference fixpoint",
							name, polls, c, tgt)
					}
				}
			})
		}
		if !stopped {
			t.Errorf("%s: no countdown produced a cancelled wave", name)
		}
	}
}

// Exercising cascading merges: several disjoint cycles bridged by chains, so
// a detection pass collapses multiple SCCs in one sweep and the compacted
// adjacency stays correct.
func TestMultipleSCCs(t *testing.T) {
	var b strings.Builder
	b.WriteString("int t0, t1, t2;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "int *p%d;\n", i)
	}
	b.WriteString("void f(void) {\n")
	// Three 4-cycles, each seeded with a distinct target, chained so facts
	// flow 0-block -> 1-block -> 2-block.
	for blk := 0; blk < 3; blk++ {
		base := blk * 4
		fmt.Fprintf(&b, "\tp%d = &t%d;\n", base, blk)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&b, "\tp%d = p%d;\n", base+(i+1)%4, base+i)
		}
		if blk > 0 {
			fmt.Fprintf(&b, "\tp%d = p%d;\n", base, base-4)
		}
	}
	b.WriteString("}\n")

	r := loadIR(t, b.String(), nil)
	for name, strat := range exactStrategies() {
		res := core.AnalyzeWith(r.IR, strat, noPrep)
		ref := core.AnalyzeReference(r.IR, strat, core.Options{})
		if res.Wave.SCCsFound < 3 {
			t.Errorf("%s: found %d SCCs, want >= 3", name, res.Wave.SCCsFound)
		}
		if d, rd := waveFactDump(res), waveFactDump(ref); d != rd {
			t.Errorf("%s: dump differs from reference\ndense:\n%s\nref:\n%s", name, d, rd)
		}
		// The last block sees every upstream seed.
		if got := targets(t, res, r.IR, "p8"); got != "{t0, t1, t2}" {
			t.Errorf("%s: p8 -> %s, want {t0, t1, t2}", name, got)
		}
	}
}
