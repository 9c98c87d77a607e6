package report_test

import (
	"strings"
	"testing"

	"repro/internal/corpus/corpustest"
	"repro/internal/frontend"
	"repro/internal/metrics"
	"repro/internal/report"
)

// measureTwo runs a small two-program set (one per group) once.
func measureTwo(t *testing.T) []*metrics.Program {
	t.Helper()
	var progs []*metrics.Program
	for _, name := range []string{"ul", "li"} {
		src := corpustest.MustSource(name)
		p, err := metrics.Measure(name, src, frontend.Options{}, metrics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

func TestFig3Rendering(t *testing.T) {
	var sb strings.Builder
	report.Fig3(&sb, measureTwo(t))
	out := sb.String()
	for _, want := range []string{"Figure 3", "ul", "li", "programs below cast structures"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4OnlyCastGroup(t *testing.T) {
	var sb strings.Builder
	report.Fig4(&sb, measureTwo(t))
	out := sb.String()
	if !strings.Contains(out, "li") {
		t.Errorf("Fig4 missing li:\n%s", out)
	}
	// ul (no casting) is excluded from Figure 4, as in the paper.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ul ") {
			t.Errorf("Fig4 must not list the non-casting program ul:\n%s", out)
		}
	}
}

func TestFig5AndFig6Rendering(t *testing.T) {
	progs := measureTwo(t)
	var sb strings.Builder
	report.Fig5(&sb, progs)
	if !strings.Contains(sb.String(), "absolute Offsets times") {
		t.Errorf("Fig5 missing absolute times:\n%s", sb.String())
	}
	sb.Reset()
	report.Fig6(&sb, progs)
	out := sb.String()
	for _, want := range []string{"Figure 6", "absolute Offsets edge counts", "bars"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryRendering(t *testing.T) {
	var sb strings.Builder
	report.Summary(&sb, measureTwo(t))
	out := sb.String()
	for _, want := range []string{"field sensitivity", "portability"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWaveStatsTablesByClass(t *testing.T) {
	var sb strings.Builder
	report.WaveStats(&sb, measureTwo(t))
	out := sb.String()
	// A sequential run records pure and schedule counters but no machine
	// ones (no steals, no -peak-mem sampling), so that table is omitted.
	for _, want := range []string{"Solver counters, pure", "prep_collapsed", "cells folded by prepass merges",
		"Solver counters, schedule", "edge_batches", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("WaveStats output missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"Solver counters, machine", "par_waves"} {
		if strings.Contains(out, absent) {
			t.Errorf("WaveStats output has %q though no run recorded it:\n%s", absent, out)
		}
	}
}
