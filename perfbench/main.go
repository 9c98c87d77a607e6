// Command perfbench is the repository's benchmark. One process runs one
// named workload against the analysis library (corpus, casts, large) or the
// in-process HTTP service (service), checks every op's output against the
// map-based reference solver, and prints one JSON result line:
//
//	perfbench --workload corpus --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a separate traced run, whose spans and
// breakdown tables are written under --trace-dir. The exit status is
// non-zero when any op failed or disagreed with the oracle. README.md in
// this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// gomaxprocs pins the scheduler width on every host, so the parallel
// executor and the two service clients see the same number of cores.
const gomaxprocs = 2

type metricDef struct{ name, unit string }

// endToEnd and perLayer declare every metric the benchmark prints, with its
// unit. BENCHMARK.json lists the same names; the tests hold the two equal.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_frac", "fraction"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"query_ms_p50", "ms"},
	{"update_ms_p50", "ms"},
	{"hit_ms_p50", "ms"},
}

var perLayer = []metricDef{
	{"frontend.pp_ms", "ms"},
	{"frontend.parse_ms", "ms"},
	{"frontend.sema_ms", "ms"},
	{"frontend.lower_ms", "ms"},
	{"frontend.alloc_mb", "MB"},
	{"frontend.stmts", "count"},
	{"core.solve_ms", "ms"},
	{"core.solve_ms.ca", "ms"},
	{"core.solve_ms.coc", "ms"},
	{"core.solve_ms.offsets", "ms"},
	{"core.solve_ms.cis", "ms"},
	{"core.alloc_mb", "MB"},
	{"core.steps", "count"},
	{"core.facts", "count"},
	{"core.waves", "count"},
	{"core.edge_batches", "count"},
	{"core.prep_collapsed", "count"},
	{"core.par_shards", "count"},
	{"core.par_steals", "count"},
	{"core.intern_sets", "count"},
	{"core.crossings_per_batch", "ratio"},
	{"core.lookup_memo_hit_ratio", "ratio"},
	{"core.resolve_memo_hit_ratio", "ratio"},
	{"pointsto.sets_ms", "ms"},
	{"pointsto.sets_alloc_mb", "MB"},
	{"store.hit_ratio", "ratio"},
	{"incr.resume_ratio", "ratio"},
	{"solver.ms_per_solve", "ms"},
	{"demand.memo_hit_ratio", "ratio"},
	{"demand.fallback_ratio", "ratio"},
	{"demand.stmts_per_query", "count"},
	{"admission.queued", "count"},
	{"admission.shed", "count"},
	{"server.transport_ms", "ms"},
	{"other_ms", "ms"},
	{"other_frac", "fraction"},
	{"trace.overhead_ms", "ms"},
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint32
	run      time.Duration
	trace    bool
	traceDir string
	tiny     bool // small inputs, for the benchmark's own tests
	log      io.Writer
}

// outcome is what a workload measured. Metrics holds every end-to-end
// metric (untraced run) or every per-layer metric (traced run).
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"corpus":  runCorpus,
	"casts":   runCasts,
	"large":   runLarge,
	"service": runService,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: corpus, casts, large or service")
	seed := fs.Uint("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where the traced run writes spans and tables")
	size := fs.String("size", "full", "input size: full, or tiny for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "tiny") || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, size %q, seconds %g)\n", *workload, *trace, *size, *seconds)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	o := options{
		workload: *workload,
		seed:     uint32(*seed),
		run:      time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
		tiny:     *size == "tiny",
		log:      stderr,
	}
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%d size=%s gomaxprocs=%d\n",
		o.workload, o.seed, *seconds, *trace, *size, gomaxprocs)
	out, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := result(out, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed or disagreed with the oracle\n", o.workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

// result selects the declared metrics for the run kind and attaches units.
// A declared metric the workload did not produce is a benchmark bug.
func result(out *outcome, traced bool) (resultJSON, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   out.attempted > 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return res, nil
}
