package main

// The -prep mode: measure the offline constraint-reduction prepass and the
// hash-consed set pool against their own ablation at large synthetic scale,
// the experiment EXPERIMENTS.md records. For each size, the hub-and-chains
// program is loaded once and solved repeatedly with the pair on and off;
// wall time is the minimum over -repeat runs (noise floors, not averages),
// peak live heap is the barrier-sampled maximum of one tracked run, and the
// fact count is cross-checked between the two modes so the table cannot
// quietly report a speedup on a wrong answer.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
)

// prepSizes derives generator parameters targeting the given statement
// counts. Chains dominate the count: each contributes ChainLen-ish copies
// plus one head load.
func prepSizes(stmtTargets []int) []corpus.LargeParams {
	var out []corpus.LargeParams
	for _, n := range stmtTargets {
		p := corpus.LargeParams{
			ChainLen:   250,
			NTargets:   2048,
			NFields:    4,
			CrossEvery: 16,
			Seed:       1,
		}
		// Average emitted chain length is ChainLen + ChainLen/8 (jitter)
		// plus the head load.
		per := p.ChainLen + p.ChainLen/8 + 1
		p.NChains = (n - p.NTargets) / per
		if p.NChains < 4 {
			p.NChains = 4
		}
		out = append(out, p)
	}
	return out
}

type prepRow struct {
	wall      time.Duration
	peak      int
	collapsed int
	interned  int
	facts     int
}

func prepSolve(ctx context.Context, prog *frontend.Result, repeat, solvePar int, noPrepass bool) (prepRow, error) {
	opts := core.Options{
		NoPrepass:    noPrepass,
		TrackPeakMem: true,
		Parallelism:  solvePar,
	}
	var row prepRow
	for i := 0; i < repeat; i++ {
		res := core.AnalyzeContext(ctx, prog.IR, core.NewCIS(), opts)
		if res.Incomplete != nil {
			return row, fmt.Errorf("incomplete solve: %v", res.Incomplete)
		}
		if i == 0 || res.Duration < row.wall {
			row.wall = res.Duration
		}
		row.peak = max(row.peak, res.Wave.PeakLiveBytes)
		row.collapsed = res.Wave.PrepCollapsed
		row.interned = res.Wave.InternSets
		row.facts = res.TotalFacts()
	}
	return row, nil
}

// runPrep prints the prepass-vs-ablation table for each target size.
func runPrep(ctx context.Context, stmtTargets []int, repeat, solvePar int) error {
	fmt.Println("Offline prepass + hash-consed sets vs ablation (hub-and-chains workload;")
	fmt.Println("wall = min of repeats, peak = barrier-sampled live heap, facts cross-checked)")
	fmt.Println()
	fmt.Printf("%10s %-8s %12s %14s %10s %10s %12s\n",
		"stmts", "mode", "wall", "peak-live", "collapsed", "interned", "facts")
	fmt.Printf("%s\n", divider(82))
	for _, p := range prepSizes(stmtTargets) {
		src := corpus.GenerateLarge(p)
		prog, err := frontend.Load(src, frontend.Options{})
		if err != nil {
			return fmt.Errorf("prep: load: %w", err)
		}
		stmts := len(prog.IR.Stmts)
		on, err := prepSolve(ctx, prog, repeat, solvePar, false)
		if err != nil {
			return fmt.Errorf("prep: %d stmts: %w", stmts, err)
		}
		off, err := prepSolve(ctx, prog, repeat, solvePar, true)
		if err != nil {
			return fmt.Errorf("prep ablation: %d stmts: %w", stmts, err)
		}
		if on.facts != off.facts {
			return fmt.Errorf("prep: %d stmts: fact mismatch: prepass=%d ablation=%d",
				stmts, on.facts, off.facts)
		}
		fmt.Printf("%10d %-8s %12v %14d %10d %10d %12d\n",
			stmts, "prep", on.wall, on.peak, on.collapsed, on.interned, on.facts)
		fmt.Printf("%10d %-8s %12v %14d %10d %10d %12d\n",
			stmts, "noprep", off.wall, off.peak, off.collapsed, off.interned, off.facts)
		speedup := float64(off.wall) / float64(on.wall)
		peakRatio := 0.0
		if on.peak > 0 {
			peakRatio = float64(off.peak) / float64(on.peak)
		}
		fmt.Printf("%10s %-8s %11.2fx %13.2fx\n", "", "ratio", speedup, peakRatio)
	}
	return nil
}

func divider(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
