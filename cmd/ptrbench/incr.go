package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/incr"
)

// runIncr measures the incremental re-analysis subsystem: for each corpus
// program it captures a constraint graph from a cold solve, generates
// seeded single-function edits, and compares a warm Resume of each edited
// program against a cold solve of it. The warm path's cost is split into
// its phases instead of one conflated number:
//
//   - decode: the mirror-artifact build — replaying the captured
//     statements to reconstruct copy edges and the taint index. Memoized
//     per resident graph, so only the first resume pays it (a graph
//     restored from disk always does); printed from that first run.
//   - converge (cv/cold): the per-edit marginal cost — diff, match,
//     taint, seeding, delta solve — against the cold solve's full wall.
//     This isolates what the persistent graph saves: both paths must
//     parse the edited sources identically.
//   - capture: folding the edited program's solved state into the next
//     resumable graph — the price of staying warm for the edit after
//     this one.
//   - wall: end-to-end warm wall (parse and decode included) against the
//     same cold wall. On tiny programs this exceeds 100% even when
//     converge is small — the cold solve is so cheap that the fixed
//     decode/diff overhead dominates (see EXPERIMENTS.md).
//
// Answers are checked identical (TotalFacts) on every pair — a
// disagreement aborts the run.
func runIncr(ctx context.Context, names []string, abi string, repeat, editsN int) error {
	if repeat < 1 {
		repeat = 1
	}
	cfg := incr.Config{ABI: abi}
	fmt.Println("Incremental re-analysis: warm resume vs cold solve per single-function edit")
	fmt.Printf("(strategy %s, abi %s, %d edits/program, median of %d runs;\n",
		cfg.Resolved().Strategy, abi, editsN, repeat)
	fmt.Println(" decode is paid once per resident graph, capture once per kept result)")
	fmt.Println()
	fmt.Printf("%-12s %-12s %10s %10s %10s %10s %10s %7s %7s %8s %8s\n",
		"program", "edit", "cold", "warm", "decode", "converge", "capture", "cv/cold", "wall", "seeded", "skipped")

	var convRatios, wallRatios []float64
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			return err
		}
		g, _, err := incr.Solve(ctx, src, cfg)
		if err != nil {
			return fmt.Errorf("%s: base solve: %w", name, err)
		}
		edits := corpus.Edits(src[0].Text, 7, editsN)
		if len(edits) == 0 {
			fmt.Fprintf(os.Stderr, "ptrbench: %s: no viable edits, skipped\n", name)
			continue
		}
		for _, ed := range edits {
			newSrc := []frontend.Source{{Name: src[0].Name, Text: ed.Text}}
			var coldFacts int
			coldWalls := make([]time.Duration, 0, repeat)
			captures := make([]time.Duration, 0, repeat)
			for i := 0; i < repeat; i++ {
				start := time.Now()
				fres, res, err := incr.Analyze(ctx, newSrc, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s: cold: %w", name, ed, err)
				}
				coldWalls = append(coldWalls, time.Since(start))
				coldFacts = res.TotalFacts()
				capStart := time.Now()
				if _, err := incr.Capture(newSrc, cfg, fres.IR, fres.Layout, res); err != nil {
					return fmt.Errorf("%s/%s: capture: %w", name, ed, err)
				}
				captures = append(captures, time.Since(capStart))
			}
			var stats *incr.Stats
			var warmFacts int
			var decode time.Duration
			warmWalls := make([]time.Duration, 0, repeat)
			convs := make([]time.Duration, 0, repeat)
			for i := 0; i < repeat; i++ {
				start := time.Now()
				_, res, st, err := incr.Resume(ctx, g, newSrc, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s: warm: %w", name, ed, err)
				}
				warmWalls = append(warmWalls, time.Since(start))
				convs = append(convs, st.ConvergeTime)
				if i == 0 {
					decode = st.DecodeTime // later runs hit the memoized mirror
				}
				stats = st
				warmFacts = res.TotalFacts()
			}
			if coldFacts != warmFacts {
				return fmt.Errorf("%s/%s: warm resume disagrees with cold solve: %d vs %d facts",
					name, ed, warmFacts, coldFacts)
			}
			cold, warm, conv := medianDur(coldWalls), medianDur(warmWalls), medianDur(convs)
			capture := medianDur(captures)
			convRatio := float64(conv) / float64(cold)
			wallRatio := float64(warm) / float64(cold)
			if stats.Outcome == "resumed" {
				convRatios = append(convRatios, convRatio)
				wallRatios = append(wallRatios, wallRatio)
			}
			tag := ""
			if stats.Outcome != "resumed" {
				tag = " (fell back: " + stats.FallbackReason + ")"
			}
			fmt.Printf("%-12s %-12s %10v %10v %10v %10v %10v %6.0f%% %6.0f%% %8d %8d%s\n",
				name, ed.String(), cold.Round(time.Microsecond), warm.Round(time.Microsecond),
				decode.Round(time.Microsecond), conv.Round(time.Microsecond),
				capture.Round(time.Microsecond), convRatio*100, wallRatio*100,
				stats.FactsSeeded, stats.StmtsSkipped, tag)
		}
	}
	if len(convRatios) > 0 {
		fmt.Printf("\nmedian re-convergence vs cold-solve wall over %d resumed edits: %.0f%% (end-to-end wall: %.0f%%)\n",
			len(convRatios), medianFloat(convRatios)*100, medianFloat(wallRatios)*100)
	}
	return nil
}

func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func medianFloat(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
