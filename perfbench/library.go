package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cc/ast"
	"repro/internal/cc/layout"
	"repro/internal/cc/parser"
	"repro/internal/cc/pp"
	"repro/internal/cc/sema"
	"repro/internal/cc/types"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/libsum"
	"repro/pointsto"
)

// The library workloads (corpus, casts, large) call the pointsto façade in
// process. One op analyzes every program of the workload under its
// instances with pointsto.AnalyzeAll and materializes Report.Sets() for
// each result. The traced run cycles through three kinds of op:
//
//   - untraced: the op itself, as the untraced run measures it;
//   - façade: the same op with a span around each AnalyzeAll and each
//     Report.Sets() call;
//   - layers: the analysis replayed through the layers' public functions,
//     the front end's four stages in frontend.Load's order and then
//     core.AnalyzeContext per instance, with a span around each call.
//
// The layers op splits what AnalyzeAll does, which the façade cannot show
// from outside; the façade op times the real Sets() and, against the
// untraced op, what the spans cost.

type program struct {
	name string
	src  []pointsto.Source
}

type libWorkload struct {
	strats   []pointsto.Strategy
	cfg      pointsto.Config
	programs []program
	gen      func() []program
	// warmOps is how many warm-up ops one set-up runs: enough that a
	// set-up takes close to a second and repeats within a tenth.
	warmOps int
}

// queryNamesPerOp bounds how many names the library query latency asks
// about after every op, split over the programs (at least 32 each). A
// program with fewer names is asked about every name. Per-call costs are
// heavy-tailed, so the bound is large enough to cover every name of a
// casts program (about 7,600) and almost every corpus program: a sample of
// 1024 names moved the casts mean by a quarter between seeds.
const queryNamesPerOp = 8192

func runCorpus(o options) (*outcome, error) {
	gen := func() []program {
		names := corpus.Names()
		if o.tiny {
			names = names[:3]
		}
		var progs []program
		for _, i := range newLCG(o.seed, 1).perm(len(names)) {
			src, err := corpus.Source(names[i])
			if err != nil {
				panic(err) // the corpus is embedded; a missing program is a build bug
			}
			progs = append(progs, program{names[i], facadeSources(src)})
		}
		return progs
	}
	return runLibrary(o, &libWorkload{
		strats:  pointsto.Strategies(),
		cfg:     pointsto.Config{Parallelism: 1, Options: pointsto.Options{Parallelism: 1}},
		gen:     gen,
		warmOps: 5,
	})
}

func runCasts(o options) (*outcome, error) {
	p := corpus.GenParams{NStructs: 24, NFields: 8, NObjects: 12, NDerefs: 600, CastDensity: 25, Seed: o.seed}
	if o.tiny {
		p = corpus.GenParams{NStructs: 4, NFields: 4, NObjects: 3, NDerefs: 40, CastDensity: 25, Seed: o.seed}
	}
	return runLibrary(o, &libWorkload{
		strats: pointsto.Strategies(),
		cfg:    pointsto.Config{Parallelism: 1, Options: pointsto.Options{Parallelism: gomaxprocs}},
		gen: func() []program {
			return []program{{"casts", facadeSources(corpus.Generate(p))}}
		},
		warmOps: 1,
	})
}

func runLarge(o options) (*outcome, error) {
	p := corpus.LargeParams{NChains: 388, ChainLen: 250, NTargets: 256, NFields: 8, CrossEvery: 16, Seed: o.seed}
	if o.tiny {
		p = corpus.DefaultLargeParams()
		p.Seed = o.seed
	}
	return runLibrary(o, &libWorkload{
		strats: []pointsto.Strategy{pointsto.CIS},
		cfg:    pointsto.Config{Parallelism: 1, Options: pointsto.Options{Parallelism: gomaxprocs}},
		gen: func() []program {
			return []program{{"large", facadeSources(corpus.GenerateLarge(p))}}
		},
		warmOps: 1,
	})
}

func facadeSources(src []frontend.Source) []pointsto.Source {
	out := make([]pointsto.Source, len(src))
	for i, s := range src {
		out[i] = pointsto.Source{Name: s.Name, Text: s.Text}
	}
	return out
}

// opKind is which of the op's forms ran.
type opKind int

const (
	untracedOp opKind = iota
	facadeOp
	layersOp
)

// opResult is what one op produced, per program and instance.
type opResult struct {
	kind    opKind
	id      int
	reports [][]*pointsto.Report // untraced and façade ops
	sets    [][][]pointsto.Set   // untraced and façade ops
	results [][]*core.Result     // layers ops
	traced  *tracedStats         // layers ops
}

// digest reduces the op's answer for program i under instance j. A layers
// op's core result is rendered by the oracle's own renderer, off the op's
// clock.
func (res *opResult) digest(i, j int) digest {
	if res.kind == layersOp {
		return setsDigest(resultSets(res.results[i][j]))
	}
	return setsDigest(res.sets[i][j])
}

// op is the façade op: AnalyzeAll plus Sets() for every program. With a
// tracer it records a span around each of those calls; with nil it is the
// untraced op.
func (w *libWorkload) op(tr *tracer, opID int) (*opResult, error) {
	out := &opResult{
		kind:    untracedOp,
		id:      opID,
		reports: make([][]*pointsto.Report, len(w.programs)),
		sets:    make([][][]pointsto.Set, len(w.programs)),
	}
	if tr != nil {
		out.kind = facadeOp
	}
	root := tr.begin(opID, -1, "op", "")
	defer tr.end(root)
	for i, p := range w.programs {
		ps := tr.begin(opID, root, "program", p.name)
		sp := tr.begin(opID, ps, "pointsto.analyze", "")
		reps, err := pointsto.AnalyzeAll(p.src, w.cfg, w.strats...)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out.reports[i] = reps
		out.sets[i] = make([][]pointsto.Set, len(reps))
		for j, r := range reps {
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.name, w.strats[j], err)
			}
			sp := tr.begin(opID, ps, "pointsto.sets", shortName[w.strats[j]])
			out.sets[i][j] = r.Sets()
			tr.end(sp)
		}
		tr.end(ps)
	}
	return out, nil
}

// instStats are one (program, instance) solve's counters in a layers op.
type instStats struct {
	steps, facts, waves, edgeBatches, crossings          int
	prepCollapsed, parShards, parSteals, internSets      int
	lookupHits, lookupMisses, resolveHits, resolveMisses int
}

// tracedStats are a layers op's per-program counters.
type tracedStats struct {
	stmts []int         // IR statements per program
	inst  [][]instStats // per program, per instance
}

// layersOp replays the op's analysis through the layers' public functions,
// one span per call.
func (w *libWorkload) layersOp(tr *tracer, opID int) (*opResult, error) {
	out := &opResult{
		kind:    layersOp,
		id:      opID,
		results: make([][]*core.Result, len(w.programs)),
		traced:  &tracedStats{stmts: make([]int, len(w.programs)), inst: make([][]instStats, len(w.programs))},
	}
	strats := make([][]core.Strategy, len(w.programs))
	opts := core.Options{Parallelism: w.cfg.Options.Parallelism}
	root := tr.begin(opID, -1, "op", "")
	for i, p := range w.programs {
		ps := tr.begin(opID, root, "program", p.name)
		res, err := tracedLoad(tr, opID, ps, p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out.traced.stmts[i] = len(res.IR.Stmts)
		for _, s := range w.strats {
			strat := newStrategy(s, res.Layout.ABI())
			sp := tr.begin(opID, ps, "core.solve", shortName[s])
			r := core.AnalyzeContext(context.Background(), res.IR, strat, opts)
			tr.end(sp)
			if r.Incomplete != nil {
				return nil, fmt.Errorf("%s/%s: solve stopped early", p.name, s)
			}
			out.results[i] = append(out.results[i], r)
			strats[i] = append(strats[i], strat)
		}
		tr.end(ps)
	}
	tr.end(root)
	// Counters are read after the op's root span closes.
	for i := range w.programs {
		for j, r := range out.results[i] {
			rec := strats[i][j].Recorder()
			wv := r.Wave
			out.traced.inst[i] = append(out.traced.inst[i], instStats{
				steps: r.Steps, facts: r.TotalFacts(), waves: wv.Waves,
				edgeBatches: wv.EdgeBatches, crossings: wv.FactCrossings,
				prepCollapsed: wv.PrepCollapsed, parShards: wv.ParShards,
				parSteals: wv.ParSteals, internSets: wv.InternSets,
				lookupHits: rec.LookupCacheHits, lookupMisses: rec.LookupCacheMisses,
				resolveHits: rec.ResolveCacheHits, resolveMisses: rec.ResolveCacheMisses,
			})
		}
	}
	return out, nil
}

// tracedLoad is frontend.Load with the default options, its stages called
// one by one under spans: preprocess, parse, sema, lower.
func tracedLoad(tr *tracer, opID, parent int, src []pointsto.Source) (*frontend.Result, error) {
	univ := types.NewUniverse()
	lay := layout.New(layout.LP64)
	include := func(name string, system bool, from string) (string, []byte, error) {
		if content, err := os.ReadFile(filepath.Join(from, name)); err == nil {
			return filepath.Join(from, name), content, nil
		}
		for _, s := range src {
			if s.Name == name {
				return name, []byte(s.Text), nil
			}
		}
		return "", nil, fmt.Errorf("include %q not found", name)
	}
	var files []*ast.File
	for _, s := range src {
		sp := tr.begin(opID, parent, "frontend.pp", s.Name)
		toks, err := pp.New(pp.Config{Include: include}).Process(s.Name, []byte(s.Text))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("preprocess: %w", err)
		}
		sp = tr.begin(opID, parent, "frontend.parse", s.Name)
		f, err := parser.Parse(s.Name, toks, parser.Config{Universe: univ, Layout: lay})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		files = append(files, f)
	}
	sp := tr.begin(opID, parent, "frontend.sema", "")
	prog, err := sema.Analyze(files, univ, lay)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("sema: %w", err)
	}
	sp = tr.begin(opID, parent, "frontend.lower", "")
	irProg := ir.Build(prog, ir.Config{Summarizer: libsum.New()})
	tr.end(sp)
	return &frontend.Result{Files: files, Sema: prog, IR: irProg, Layout: lay, Universe: univ}, nil
}

// libSamples accumulates the untraced run's per-op and per-call timings.
type libSamples struct {
	opMS, queryMS, hitMS, updateMS []float64
}

// probeAnalogs times, off the op clock, the library counterparts of the
// service's request kinds on each program's CIS report. A query is a
// PointsTo or MayAlias call: one sample per program is its whole batch of
// calls, divided by the number of calls. A hit re-serves the summary a
// cached /v1/analyze answer carries from the figures the report stores
// (Steps, Duration, SolverStats, NumDerefSites), hitsPerReport times as
// one sample, divided likewise. An update is the CIS solve of a version,
// as Report.Duration records it.
//
// The queries allocate, so they run after a collection: otherwise a
// collection of the op's live reports lands in some batches and not in
// others (measured over ten seeds on casts, collecting first cut the
// query spread from 0.31 to 0.11).
func (w *libWorkload) probeAnalogs(res *opResult, names [][]string, s *libSamples) {
	cis := w.cisIndex()
	for i := range w.programs {
		r := res.reports[i][cis]
		t := time.Now()
		for k := 0; k < hitsPerReport; k++ {
			_, _, _, _ = r.Steps(), r.Duration(), r.SolverStats(), r.NumDerefSites()
		}
		s.hitMS = append(s.hitMS, ms(time.Since(t))/hitsPerReport)
		s.updateMS = append(s.updateMS, ms(r.Duration()))
	}
	runtime.GC()
	for i := range w.programs {
		r := res.reports[i][cis]
		n := names[i]
		t := time.Now()
		calls := 0
		for q := 0; q+1 < len(n); q += 2 {
			_ = r.PointsTo(n[q])
			_ = r.MayAlias(n[q], n[q+1])
			calls += 2
		}
		if calls > 0 {
			s.queryMS = append(s.queryMS, ms(time.Since(t))/float64(calls))
		}
	}
}

func (w *libWorkload) cisIndex() int {
	for i, s := range w.strats {
		if s == pointsto.CIS {
			return i
		}
	}
	return 0
}

// queryNames picks each program's query operands from a report's names, in
// seeded order, up to its share of queryNamesPerOp.
func (w *libWorkload) queryNames(seed uint32, res *opResult) [][]string {
	cis := w.cisIndex()
	out := make([][]string, len(w.programs))
	for i := range w.programs {
		names := res.reports[i][cis].Names()
		for _, k := range newLCG(seed, uint32(100+i)).perm(len(names)) {
			if len(out[i]) == max(32, queryNamesPerOp/len(w.programs)) {
				break
			}
			out[i] = append(out[i], names[k])
		}
	}
	return out
}

// hitsPerReport is how many times each CIS report re-serves its summary
// for the library hit latency after every op.
const hitsPerReport = 1024

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 3

// runLibrary runs one library workload: set-up, warm-up, the measured op
// loop, then the oracle check.
func runLibrary(o options, w *libWorkload) (*outcome, error) {
	or := newOracle()
	var checks [][]checkItem // per op, warm-ups first
	record := func(res *opResult) {
		var items []checkItem
		for i, p := range w.programs {
			for j, s := range w.strats {
				items = append(items, checkItem{or.key(p.name, p.src, s), res.digest(i, j)})
			}
		}
		checks = append(checks, items)
	}

	// Set-up: generate the inputs and run the warm-up ops on them, several
	// times; setup_s is the median. Warm-up outputs are checked too.
	var setups []float64
	var warm *opResult
	for i := 0; i < setupReps; i++ {
		warm = nil
		runtime.GC()
		t := time.Now()
		w.programs = w.gen()
		for k := 0; k < w.warmOps; k++ {
			var err error
			if warm, err = w.op(nil, -1); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			record(warm)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	setupS := median(setups)
	nWarm := len(checks)
	names := w.queryNames(o.seed, warm)
	warm = nil

	var s libSamples
	var traced []*opResult
	wall := map[opKind][]float64{}
	tr := newTracer(time.Now())
	start := time.Now()
	deadline := start.Add(o.run)
	// The untraced run needs two ops for a p90; the traced run cycles
	// through untraced, façade and layers ops and ends on a whole cycle.
	for n := 0; time.Now().Before(deadline) || n < 2 || (o.trace && n%3 != 0); n++ {
		// Every op starts from a collected heap, so one op's garbage does
		// not land in the next op's time or peak.
		runtime.GC()
		kind := untracedOp
		if o.trace {
			kind = opKind(n % 3)
		}
		t := time.Now()
		var res *opResult
		var err error
		switch kind {
		case untracedOp:
			res, err = w.op(nil, n)
		case facadeOp:
			res, err = w.op(tr, n)
		default:
			res, err = w.layersOp(tr, n)
		}
		d := ms(time.Since(t))
		if err != nil {
			// A failed op counts against ok_frac: its check item names no
			// registered (program, instance), so the oracle rejects it.
			fmt.Fprintf(o.log, "perfbench: op %d: %v\n", n, err)
			checks = append(checks, []checkItem{{key: "failed op"}})
			continue
		}
		record(res)
		wall[kind] = append(wall[kind], d)
		if kind == untracedOp {
			s.opMS = append(s.opMS, d)
			if !o.trace {
				w.probeAnalogs(res, names, &s)
			}
			continue
		}
		res.reports, res.sets, res.results = nil, nil, nil
		traced = append(traced, res)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// The oracle runs after the measurement and outside every timed region.
	if err := or.solve(); err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]float64)}
	for i, items := range checks {
		ok := true
		for _, c := range items {
			if !or.check(c.key, c.got) {
				ok = false
				fmt.Fprintf(o.log, "perfbench: op %d: %s: digest %s disagrees with the reference solver\n", i-nWarm, c.key, c.got)
			}
		}
		if i < nWarm {
			if !ok {
				return out, fmt.Errorf("warm-up output disagrees with the reference solver")
			}
			continue
		}
		out.attempted++
		if !ok {
			out.failed++
		}
	}
	fmt.Fprintf(o.log, "perfbench: %d ops (%d untraced), %d programs x %d instances each, setup %.3fs\n",
		out.attempted, len(s.opMS), len(w.programs), len(w.strats), setupS)
	if !o.trace {
		m := out.metrics
		m["op_ms_p50"] = median(s.opMS)
		m["op_ms_p90"] = quantile(s.opMS, 0.9)
		m["ops_per_s"] = 1e3 / mean(s.opMS)
		m["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
		m["peak_rss_mb"] = rss
		m["setup_s"] = setupS
		m["query_ms_p50"] = median(s.queryMS)
		m["hit_ms_p50"] = median(s.hitMS)
		m["update_ms_p50"] = median(s.updateMS)
		return out, nil
	}
	tables := w.layerMetrics(out.metrics, tr, traced, wall)
	return out, writeReport(o, tr, tables)
}

type checkItem struct {
	key string
	got digest
}

// shortName abbreviates an instance for metric names.
var shortName = map[pointsto.Strategy]string{
	pointsto.CollapseAlways: "ca",
	pointsto.CollapseOnCast: "coc",
	pointsto.Offsets:        "offsets",
	pointsto.CIS:            "cis",
}

// kindName names an op kind in the breakdown tables.
var kindName = map[opKind]string{untracedOp: "untraced", facadeOp: "façade", layersOp: "layers"}

// layerMetrics turns a traced run's spans and counters into the per-layer
// metrics and the breakdown tables. Front-end and core figures come from
// the layers ops, Sets() figures from the façade ops; wall holds every
// op's wall time by kind.
func (w *libWorkload) layerMetrics(m map[string]float64, tr *tracer, traced []*opResult, wall map[opKind][]float64) []*table {
	self := tr.selfMS()
	kindOf := map[int]opKind{}
	nOps := map[opKind]float64{}
	var layerOps []*opResult
	for _, res := range traced {
		kindOf[res.id] = res.kind
		nOps[res.kind]++
		if res.kind == layersOp {
			layerOps = append(layerOps, res)
		}
	}
	type acc struct{ ms, allocMB float64 }
	// perOp[op][layer] sums self time and allocation of one layer in one op.
	perOp := map[int]map[string]*acc{}
	// perProg and perInst sum self time per row over the ops of one kind,
	// divided by their number: the mean per op.
	perProg := map[string]map[string]float64{}
	perInst := map[string]map[string]float64{}
	opWall := map[int]float64{}
	for i, sp := range tr.spans {
		kind, ok := kindOf[sp.Op]
		if !ok {
			continue // a failed op
		}
		if perOp[sp.Op] == nil {
			perOp[sp.Op] = map[string]*acc{}
		}
		layer := sp.Name
		switch sp.Name {
		case "op":
			opWall[sp.Op] = (sp.EndUS - sp.StartUS) / 1e3
			layer = "other"
		case "program":
			layer = "other"
		case "core.solve":
			layer = "core.solve_ms." + sp.Label
		}
		a := perOp[sp.Op][layer]
		if a == nil {
			a = &acc{}
			perOp[sp.Op][layer] = a
		}
		a.ms += self[i]
		if layer != "other" {
			a.allocMB += float64(sp.AllocBytes) / (1 << 20)
		}
		// Breakdown rows: attribute leaf spans to their program and instance.
		if sp.Parent >= 0 && tr.spans[sp.Parent].Name == "program" {
			prog := tr.spans[sp.Parent].Label
			if perProg[prog] == nil {
				perProg[prog] = map[string]float64{}
			}
			share := self[i] / nOps[kind]
			group := "frontend"
			switch sp.Name {
			case "pointsto.analyze":
				group = sp.Name
			case "core.solve", "pointsto.sets":
				if perInst[sp.Label] == nil {
					perInst[sp.Label] = map[string]float64{}
				}
				perInst[sp.Label][sp.Name] += share
				group = layer
			}
			perProg[prog][group] += share
		}
	}
	// layerMS is the median over the ops of one kind of the summed self
	// time and allocation of the named layers.
	layerMS := func(kind opKind, layers ...string) (msMed, allocMed float64) {
		var t, a []float64
		for op, lm := range perOp {
			if kindOf[op] != kind {
				continue
			}
			x, y := 0.0, 0.0
			for _, l := range layers {
				if v := lm[l]; v != nil {
					x += v.ms
					y += v.allocMB
				}
			}
			t = append(t, x)
			a = append(a, y)
		}
		return median(t), median(a)
	}
	m["frontend.pp_ms"], _ = layerMS(layersOp, "frontend.pp")
	m["frontend.parse_ms"], _ = layerMS(layersOp, "frontend.parse")
	m["frontend.sema_ms"], _ = layerMS(layersOp, "frontend.sema")
	m["frontend.lower_ms"], _ = layerMS(layersOp, "frontend.lower")
	_, m["frontend.alloc_mb"] = layerMS(layersOp, "frontend.pp", "frontend.parse", "frontend.sema", "frontend.lower")
	var solveLayers []string
	for _, s := range pointsto.Strategies() {
		name := "core.solve_ms." + shortName[s]
		m[name], _ = layerMS(layersOp, name)
		solveLayers = append(solveLayers, name)
	}
	m["core.solve_ms"], m["core.alloc_mb"] = layerMS(layersOp, solveLayers...)
	m["pointsto.sets_ms"], m["pointsto.sets_alloc_mb"] = layerMS(facadeOp, "pointsto.sets")
	// other: each traced op's time in no layer span, as a share of the op;
	// the metric is the larger of the two traced kinds' medians.
	otherMS := map[opKind][]float64{}
	otherFrac := map[opKind][]float64{}
	for op, lm := range perOp {
		if a := lm["other"]; a != nil && opWall[op] > 0 {
			otherMS[kindOf[op]] = append(otherMS[kindOf[op]], a.ms)
			otherFrac[kindOf[op]] = append(otherFrac[kindOf[op]], a.ms/opWall[op])
		}
	}
	m["other_ms"], m["other_frac"] = median(otherMS[layersOp]), median(otherFrac[layersOp])
	if f := median(otherFrac[facadeOp]); f > m["other_frac"] {
		m["other_ms"], m["other_frac"] = median(otherMS[facadeOp]), f
	}
	m["trace.overhead_ms"] = median(wall[facadeOp]) - median(wall[untracedOp])

	// Counters: per layers op, summed over programs and instances; the
	// median over those ops (only the schedule counters vary between ops).
	counts := map[string][]float64{}
	var crossRatios, lookupRatios, resolveRatios []float64
	progRows := make([]instStats, len(w.programs))
	for k, res := range layerOps {
		var tot instStats
		stmts := 0
		for i := range w.programs {
			stmts += res.traced.stmts[i]
			var p instStats
			for _, st := range res.traced.inst[i] {
				p = addStats(p, st)
			}
			tot = addStats(tot, p)
			if k == len(layerOps)-1 {
				progRows[i] = p
			}
		}
		counts["frontend.stmts"] = append(counts["frontend.stmts"], float64(stmts))
		counts["core.steps"] = append(counts["core.steps"], float64(tot.steps))
		counts["core.facts"] = append(counts["core.facts"], float64(tot.facts))
		counts["core.waves"] = append(counts["core.waves"], float64(tot.waves))
		counts["core.edge_batches"] = append(counts["core.edge_batches"], float64(tot.edgeBatches))
		counts["core.prep_collapsed"] = append(counts["core.prep_collapsed"], float64(tot.prepCollapsed))
		counts["core.par_shards"] = append(counts["core.par_shards"], float64(tot.parShards))
		counts["core.par_steals"] = append(counts["core.par_steals"], float64(tot.parSteals))
		counts["core.intern_sets"] = append(counts["core.intern_sets"], float64(tot.internSets))
	}
	for name, xs := range counts {
		m[name] = median(xs)
	}
	// Ratios: per program, pooled over its instances; averaged across
	// programs with the geometric mean.
	for _, p := range progRows {
		crossRatios = append(crossRatios, ratio(float64(p.crossings), float64(p.edgeBatches)))
		lookupRatios = append(lookupRatios, ratio(float64(p.lookupHits), float64(p.lookupHits+p.lookupMisses)))
		resolveRatios = append(resolveRatios, ratio(float64(p.resolveHits), float64(p.resolveHits+p.resolveMisses)))
	}
	m["core.crossings_per_batch"] = geomean(crossRatios)
	m["core.lookup_memo_hit_ratio"] = geomean(lookupRatios)
	m["core.resolve_memo_hit_ratio"] = geomean(resolveRatios)
	for _, name := range serviceLayerMetrics {
		m[name] = 0 // the library workloads do not pass through the service
	}

	// Breakdown tables.
	opMed := median(wall[untracedOp])
	layers := &table{title: "Layer self time per op (median over the ops of the kind named; share of the untraced op)",
		head: []string{"layer", "op kind", "self ms", "share of op", "alloc MB"}}
	for _, row := range []struct {
		kind   opKind
		name   string
		layers []string
	}{
		{layersOp, "frontend.pp", []string{"frontend.pp"}},
		{layersOp, "frontend.parse", []string{"frontend.parse"}},
		{layersOp, "frontend.sema", []string{"frontend.sema"}},
		{layersOp, "frontend.lower", []string{"frontend.lower"}},
		{layersOp, "core.solve", solveLayers},
		{layersOp, "other", []string{"other"}},
		{facadeOp, "pointsto.analyze", []string{"pointsto.analyze"}},
		{facadeOp, "pointsto.sets", []string{"pointsto.sets"}},
		{facadeOp, "other", []string{"other"}},
	} {
		t, a := layerMS(row.kind, row.layers...)
		layers.add(row.name, kindName[row.kind], f1(t), f3(t/opMed), f1(a))
	}
	for _, k := range []opKind{untracedOp, facadeOp, layersOp} {
		layers.add("op wall", kindName[k], f1(median(wall[k])), f3(median(wall[k])/opMed), "")
	}

	var tables []*table
	tables = append(tables, layers)
	if len(w.programs) > 1 {
		tb := &table{title: "Per program (mean self ms per op of its kind; ratios pooled over instances)",
			head: []string{"program", "frontend", "ca", "coc", "cis", "offsets", "analyze (façade)", "sets (façade)", "steps", "facts", "crossings/batch", "lookup memo hit", "resolve memo hit"}}
		var sum [7]float64
		for i, p := range w.programs {
			row := perProg[p.name]
			st := progRows[i]
			vals := []float64{row["frontend"], row["core.solve_ms.ca"], row["core.solve_ms.coc"], row["core.solve_ms.cis"], row["core.solve_ms.offsets"], row["pointsto.analyze"], row["pointsto.sets"]}
			cells := []string{p.name}
			for k, v := range vals {
				sum[k] += v
				cells = append(cells, f2(v))
			}
			cells = append(cells, itoa(st.steps), itoa(st.facts), f2(orZero(crossRatios[i])), f3(orZero(lookupRatios[i])), f3(orZero(resolveRatios[i])))
			tb.add(cells...)
		}
		cells := []string{"**total / geomean**"}
		for _, v := range sum {
			cells = append(cells, f2(v))
		}
		cells = append(cells, "", "", f2(m["core.crossings_per_batch"]), f3(m["core.lookup_memo_hit_ratio"]), f3(m["core.resolve_memo_hit_ratio"]))
		tb.add(cells...)
		tables = append(tables, tb)
	}
	tb := &table{title: "Per instance (mean self ms per op of its kind; counters of the last layers op)",
		head: []string{"instance", "solve ms", "sets ms (façade)", "steps", "facts", "waves", "edge batches", "par shards", "par steals", "prep collapsed", "intern sets", "crossings/batch", "lookup memo hit", "resolve memo hit"}}
	last := layerOps[len(layerOps)-1].traced
	for j, s := range w.strats {
		var st instStats
		for i := range w.programs {
			st = addStats(st, last.inst[i][j])
		}
		row := perInst[shortName[s]]
		tb.add(s.String(), f1(row["core.solve"]), f1(row["pointsto.sets"]), itoa(st.steps), itoa(st.facts), itoa(st.waves),
			itoa(st.edgeBatches), itoa(st.parShards), itoa(st.parSteals), itoa(st.prepCollapsed), itoa(st.internSets),
			f2(orZero(ratio(float64(st.crossings), float64(st.edgeBatches)))),
			f3(orZero(ratio(float64(st.lookupHits), float64(st.lookupHits+st.lookupMisses)))),
			f3(orZero(ratio(float64(st.resolveHits), float64(st.resolveHits+st.resolveMisses)))))
	}
	tables = append(tables, tb)
	return tables
}

func addStats(a, b instStats) instStats {
	return instStats{
		steps: a.steps + b.steps, facts: a.facts + b.facts, waves: a.waves + b.waves,
		edgeBatches: a.edgeBatches + b.edgeBatches, crossings: a.crossings + b.crossings,
		prepCollapsed: a.prepCollapsed + b.prepCollapsed, parShards: a.parShards + b.parShards,
		parSteals: a.parSteals + b.parSteals, internSets: a.internSets + b.internSets,
		lookupHits: a.lookupHits + b.lookupHits, lookupMisses: a.lookupMisses + b.lookupMisses,
		resolveHits: a.resolveHits + b.resolveHits, resolveMisses: a.resolveMisses + b.resolveMisses,
	}
}
