package pointsto_test

// Every points-to dump reads one renderer (internal/core/render.go). These
// tests hold it to the map-walk renderer the dumps used before — the same
// algorithm perfbench's oracle keeps — byte for byte, across the corpus,
// all four instances, the solver's executor and ablation settings, and the
// reference solver's results.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/export"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/pointsto"
)

// refSets renders a result the map-walk way: the non-empty cells ordered by
// CellSet.Sorted, each set sorted by CellSet.Sorted, temporaries dropped,
// rows sorted by cell name.
func refSets(r *core.Result) []pointsto.Set {
	cells := make(core.CellSet)
	for _, c := range r.SortedCells() {
		cells.Add(c)
	}
	var out []pointsto.Set
	for _, c := range cells.Sorted() {
		if c.Obj.IsTemp() {
			continue
		}
		s := pointsto.Set{Cell: c.String()}
		for _, t := range r.PointsToCell(c).Sorted() {
			s.Targets = append(s.Targets, t.String())
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// refByName unions the base-cell sets of the objects behind each queryable
// name, indexed as Report indexes names.
func refByName(r *core.Result, prog *ir.Program) map[string]core.CellSet {
	out := make(map[string]core.CellSet)
	for _, o := range prog.Objects {
		name := o.Name
		if o.Sym != nil && o.Sym.Name != "" {
			name = o.Sym.Name
		}
		if name == "" {
			continue
		}
		if out[name] == nil {
			out[name] = make(core.CellSet)
		}
		for c := range r.PointsTo(o, nil) {
			out[name].Add(c)
		}
	}
	return out
}

func refNames(set core.CellSet) []string {
	var out []string
	for _, c := range set.Sorted() {
		out = append(out, c.String())
	}
	return out
}

func refMayAlias(a, b core.CellSet) bool {
	for c := range a {
		if b.Has(c) {
			return true
		}
	}
	return false
}

// refText renders the cli dump and Graphviz graph of the rows.
func refText(sets []pointsto.Set) (dump, dot string) {
	var sb strings.Builder
	var lines []string
	for _, s := range sets {
		fmt.Fprintf(&sb, "%-24s -> {%s}\n", s.Cell, strings.Join(s.Targets, ", "))
		for _, t := range s.Targets {
			lines = append(lines, fmt.Sprintf("  %q -> %q;\n", s.Cell, t))
		}
	}
	sort.Strings(lines)
	return sb.String(), "digraph pointsto {\n  node [shape=box, fontname=\"monospace\"];\n" + strings.Join(lines, "") + "}\n"
}

// checkCoreDumps compares export.Result, cli.PrintAll and cli.WriteDot on
// r with the reference rendering want.
func checkCoreDumps(t *testing.T, label string, r *core.Result, want []pointsto.Set) {
	t.Helper()
	var wantJSON []export.PointsTo
	for _, s := range want {
		wantJSON = append(wantJSON, export.PointsTo{Cell: s.Cell, Targets: s.Targets})
	}
	if got := export.Result(r, true).Sets; !reflect.DeepEqual(got, wantJSON) {
		t.Errorf("%s: export.Result sets differ from the reference renderer", label)
	}
	wantDump, wantDot := refText(want)
	var dump, dot strings.Builder
	cli.PrintAll(&dump, r)
	cli.WriteDot(&dot, r)
	if dump.String() != wantDump {
		t.Errorf("%s: cli.PrintAll differs:\n%s\nwant:\n%s", label, dump.String(), wantDump)
	}
	if dot.String() != wantDot {
		t.Errorf("%s: cli.WriteDot differs:\n%s\nwant:\n%s", label, dot.String(), wantDot)
	}
}

// checkReport compares a Report's Sets, PointsTo and MayAlias with the
// reference renderings of an identically solved core result.
func checkReport(t *testing.T, label string, rep *pointsto.Report, r *core.Result, prog *ir.Program, want []pointsto.Set) {
	t.Helper()
	if got := rep.Sets(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Report.Sets differs from the reference renderer", label)
	}
	byName := refByName(r, prog)
	names := rep.Names()
	for i, name := range names {
		if got, want := rep.PointsTo(name), refNames(byName[name]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: PointsTo(%q) = %v, want %v", label, name, got, want)
		}
		for _, other := range names[i:min(i+4, len(names))] {
			if got, want := rep.MayAlias(name, other), refMayAlias(byName[name], byName[other]); got != want {
				t.Errorf("%s: MayAlias(%q, %q) = %v, want %v", label, name, other, got, want)
			}
		}
	}
}

type renderProgram struct {
	name string
	src  []frontend.Source
}

func renderPrograms(t *testing.T) []renderProgram {
	names := corpus.SortedByGroup()
	if testing.Short() {
		names = names[:4]
	}
	var out []renderProgram
	for _, name := range names {
		src, err := corpus.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, renderProgram{name, src})
	}
	casts := corpus.GenParams{NStructs: 6, NFields: 5, NObjects: 4, NDerefs: 80, CastDensity: 50, Seed: 7}
	return append(out,
		renderProgram{"generated-casts", corpus.Generate(casts)},
		renderProgram{"generated-large", corpus.GenerateLarge(corpus.DefaultLargeParams())})
}

func TestRenderingMatchesMapWalk(t *testing.T) {
	variants := []struct {
		name string
		opts pointsto.Options
	}{
		{"par1", pointsto.Options{Parallelism: 1}},
		{"par2", pointsto.Options{Parallelism: 2}},
		{"noprepass", pointsto.Options{Parallelism: 1, NoPrepass: true}},
		{"nocycleelim", pointsto.Options{Parallelism: 1, NoCycleElim: true}},
	}
	for _, p := range renderPrograms(t) {
		res, err := frontend.Load(p.src, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		psrc := make([]pointsto.Source, len(p.src))
		for i, s := range p.src {
			psrc[i] = pointsto.Source{Name: s.Name, Text: s.Text}
		}
		for _, s := range pointsto.Strategies() {
			ref := core.AnalyzeReference(res.IR, metrics.NewStrategy(s.String(), res.Layout), core.Options{})
			want := refSets(ref)
			checkCoreDumps(t, fmt.Sprintf("%s/%s/reference", p.name, s), ref, want)
			for _, v := range variants {
				label := fmt.Sprintf("%s/%s/%s", p.name, s, v.name)
				dense := core.AnalyzeWith(res.IR, metrics.NewStrategy(s.String(), res.Layout), core.Options{
					Parallelism: v.opts.Parallelism,
					NoPrepass:   v.opts.NoPrepass,
					NoCycleElim: v.opts.NoCycleElim,
				})
				if got := refSets(dense); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: dense facts differ from the reference solver's", label)
				}
				checkCoreDumps(t, label, dense, want)
				rep, err := pointsto.Analyze(psrc, pointsto.Config{Strategy: s, Options: v.opts})
				if err != nil {
					t.Fatal(err)
				}
				checkReport(t, label, rep, dense, res.IR, want)
			}
		}
	}
}

// Many goroutines querying one fresh Report race on its first rendering;
// under -race this checks the renderer's synchronization, and every
// goroutine must see the same answers.
func TestReportRenderingConcurrent(t *testing.T) {
	src := corpusSources(t, "compiler")
	want, err := pointsto.Analyze(src, pointsto.Config{Options: pointsto.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	names := want.Names()
	wantSets := want.Sets()
	rep, err := pointsto.Analyze(src, pointsto.Config{Options: pointsto.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range names {
				name := names[(k+g)%len(names)]
				if got := rep.PointsTo(name); !reflect.DeepEqual(got, want.PointsTo(name)) {
					t.Errorf("goroutine %d: PointsTo(%q) = %v", g, name, got)
				}
				other := names[(k+g+1)%len(names)]
				if got := rep.MayAlias(name, other); got != want.MayAlias(name, other) {
					t.Errorf("goroutine %d: MayAlias(%q, %q) = %v", g, name, other, got)
				}
			}
			if got := rep.Sets(); !reflect.DeepEqual(got, wantSets) {
				t.Errorf("goroutine %d: Sets differ", g)
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// Cells the solver merged share one rendered target slice: each
// representative's set is rendered once.
func TestMergedCellsShareRenderedTargets(t *testing.T) {
	src := []pointsto.Source{{Name: "cycle.c", Text: `
int x, y;
int *p, *q, *r;
void f(void) { p = q; q = r; r = p; p = &x; r = &y; }
`}}
	for _, opts := range []pointsto.Options{{Parallelism: 1}, {Parallelism: 1, NoPrepass: true}} {
		rep, err := pointsto.Analyze(src, pointsto.Config{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if st := rep.SolverStats(); st.CellsMerged == 0 && st.PrepCollapsed == 0 {
			t.Fatalf("%+v: the cycle p -> q -> r was not merged", opts)
		}
		rows := make(map[string][]string)
		for _, s := range rep.Sets() {
			rows[s.Cell] = s.Targets
		}
		want := []string{"x", "y"}
		for _, name := range []string{"p", "q", "r"} {
			if !reflect.DeepEqual(rows[name], want) || !reflect.DeepEqual(rep.PointsTo(name), want) {
				t.Fatalf("%+v: %s -> %v / %v, want %v", opts, name, rows[name], rep.PointsTo(name), want)
			}
			if &rows[name][0] != &rows["p"][0] || &rep.PointsTo(name)[0] != &rows["p"][0] {
				t.Errorf("%+v: %s's targets are rendered separately from p's", opts, name)
			}
		}
	}
}
