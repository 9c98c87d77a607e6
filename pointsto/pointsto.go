package pointsto

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/modref"
)

// Source is one C translation unit presented to the analysis.
type Source struct {
	Name string // file name, used in positions and diagnostics
	Text string // the source text
}

// Strategy selects one of the paper's four analysis instances. The zero
// value is CIS, the most precise portable instance.
type Strategy int

const (
	// CIS is the §4.3.3 Common Initial Sequence instance: field-sensitive,
	// portable, and precise across casts that stay inside a shared prefix.
	CIS Strategy = iota
	// CollapseAlways is the §4.3.1 instance: every structure collapses to
	// one variable (portable, least precise).
	CollapseAlways
	// CollapseOnCast is the §4.3.2 instance: fields stay separate until a
	// mismatched access smears them (portable, intermediate precision).
	CollapseOnCast
	// Offsets is the §4.2.2 instance: cells are byte offsets under one
	// specific ABI (most precise, not portable across layouts).
	Offsets
)

// String returns the instance name used by the paper tooling and CLI flags.
func (s Strategy) String() string {
	switch s {
	case CIS:
		return "common-initial-seq"
	case CollapseAlways:
		return "collapse-always"
	case CollapseOnCast:
		return "collapse-on-cast"
	case Offsets:
		return "offsets"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all four instances in the paper's presentation order.
func Strategies() []Strategy {
	return []Strategy{CollapseAlways, CollapseOnCast, CIS, Offsets}
}

// Options tunes the front end and the solver; the zero value reproduces the
// paper's configuration.
type Options struct {
	// ModelMainArgs gives main's argv synthetic target objects.
	ModelMainArgs bool
	// NoLibSummaries disables the built-in libc summaries.
	NoLibSummaries bool
	// CloneAllocWrappers inlines small allocation wrappers so each caller
	// gets distinct heap objects.
	CloneAllocWrappers bool
	// NoPtrArithSmear disables the Assumption 1 pointer-arithmetic rule
	// (unsound; ablation only).
	NoPtrArithSmear bool
	// FlagMisuse additionally tracks possibly corrupted pointers and
	// reports dereferences of them via Report.Misuses.
	FlagMisuse bool
	// NoCycleElim disables online cycle elimination and topological wave
	// scheduling in the dense solver, falling back to the classic
	// per-fact worklist (results are identical; ablation only).
	NoCycleElim bool
	// Parallelism sets the number of workers a single solve's fixpoint may
	// use (the dense solver's work-stealing wave executor). 0 defaults to
	// GOMAXPROCS; 1 forces the fully sequential executor. Points-to results
	// are byte-identical at every setting and across runs, so the knob is
	// excluded from content-addressed cache keys (store.Key) and from
	// incremental-graph identity; only schedule counters in SolverStats
	// vary. Distinct from Config.Parallelism, which bounds the AnalyzeAll
	// batch worker pool across solves.
	Parallelism int
	// NoPrepass disables the dense solver's offline constraint-reduction
	// prepass and its hash-consed set interner (results are identical;
	// ablation and kill switch only). Like Parallelism it is excluded from
	// content-addressed cache keys (store.Key) and from incremental-graph
	// identity: only the prep_*/intern_* counters in SolverStats and the
	// solve's memory/time profile change.
	NoPrepass bool
	// TrackPeakMem samples the live heap at the solver's wave barriers and
	// reports the peak through SolverStats.PeakLiveBytes. Each sample is a
	// stop-the-world sweep; meant for benchmarking, not serving.
	TrackPeakMem bool
}

// Limits bounds the solver's resource use; zero values mean unlimited.
// When a bound trips, the analysis stops and the Report comes back flagged
// incomplete (Report.Incomplete) instead of running without bound: the
// facts already derived are each individually sound — a subset of the
// fixpoint — only further derivations are missing.
type Limits struct {
	// MaxSteps bounds worklist iterations of the solver.
	MaxSteps int
	// MaxFacts bounds the total number of points-to edges.
	MaxFacts int
	// MaxCells bounds the number of distinct cells holding facts.
	MaxCells int
}

func (l Limits) core() core.Limits {
	return core.Limits{MaxSteps: l.MaxSteps, MaxFacts: l.MaxFacts, MaxCells: l.MaxCells}
}

// Config configures one Analyze call.
type Config struct {
	// Strategy picks the analysis instance; the zero value is CIS.
	Strategy Strategy
	// ABI names the structure-layout strategy used by sizeof/offsetof and
	// the Offsets instance: "lp64" (default), "ilp32" or "packed1".
	ABI string
	// Options tunes the front end and solver.
	Options Options
	// Parallelism bounds the worker pool of AnalyzeAll (0 = GOMAXPROCS).
	// A single Analyze call is sequential.
	Parallelism int
	// Timeout bounds the wall-clock time of the whole call (front end and
	// solve). Zero means no timeout. On expiry the call returns the
	// partial report together with an error matching ErrCanceled.
	Timeout time.Duration
	// Limits bounds the solver's resources; see the Limits type.
	Limits Limits
	// DemandBudget caps the constraint-subgraph slice a Session demand
	// query may explore before falling back to the exhaustive solver, as
	// a fraction of the program's statements (floored at 256 statements).
	// 0 means the default of 0.5; values >= 1 make fallback impossible;
	// negative values remove the cap entirely. The budget never changes
	// an answer — only which engine computes it — so it is not part of
	// the content-addressed cache key.
	DemandBudget float64
}

// context derives the call's context from ctx and Config.Timeout.
func (cfg Config) context(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Timeout > 0 {
		return context.WithTimeout(ctx, cfg.Timeout)
	}
	return ctx, func() {}
}

// Analyze runs the full pipeline — preprocess, parse, type-check, normalize
// to the paper's five assignment forms, then solve to fixpoint with the
// configured instance — and returns a queryable Report.
//
// Every failure is a classified *Error (see ErrParse, ErrSema, ErrLimit,
// ErrCanceled, ErrInternal); panics anywhere in the pipeline are converted
// into ErrInternal faults rather than crashing the caller. A tripped
// Config.Limits bound is NOT an error: the report comes back with
// Report.Incomplete describing the partial result.
func Analyze(sources []Source, cfg Config) (*Report, error) {
	return AnalyzeContext(context.Background(), sources, cfg)
}

// AnalyzeContext is Analyze under a context: canceling ctx (or exceeding
// Config.Timeout) stops the solver promptly. On cancellation the partial
// report is returned alongside an error matching ErrCanceled, so callers
// can choose between discarding the work and using the sound-but-partial
// facts.
//
// AnalyzeContext is the full-solve special case of a Session: it builds
// one and immediately forces its exhaustive Report. Callers who will ask
// more than one question should keep the Session instead.
func AnalyzeContext(ctx context.Context, sources []Source, cfg Config) (report *Report, err error) {
	defer fault.Recover("analyze", &err)
	sess, err := NewSession(sources, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := cfg.context(ctx)
	defer cancel()
	return sess.Report(ctx)
}

// AnalyzeAll analyzes the same sources under several instances, fanning the
// solver runs across Config.Parallelism workers (the front end runs once).
// Reports are returned in strategies order.
func AnalyzeAll(sources []Source, cfg Config, strategies ...Strategy) ([]*Report, error) {
	return AnalyzeAllContext(context.Background(), sources, cfg, strategies...)
}

// AnalyzeAllContext is AnalyzeAll under a context. Jobs are isolated: a
// panicking instance leaves a nil slot in the returned slice and its
// ErrInternal fault joined into the returned error while the other
// instances complete; a canceled run returns every report partial (flagged
// incomplete) plus an error matching ErrCanceled. Limit-tripped instances
// are not errors — their reports are flagged via Report.Incomplete.
func AnalyzeAllContext(ctx context.Context, sources []Source, cfg Config, strategies ...Strategy) (reports []*Report, err error) {
	defer fault.Recover("analyze", &err)
	ctx, cancel := cfg.context(ctx)
	defer cancel()
	res, err := load(sources, cfg)
	if err != nil {
		return nil, err
	}
	// Keep only the IR, so the AST and sema tables are collectable during the solve.
	prog, abi := res.IR, res.Layout.ABI()
	jobs := make([]core.BatchJob, len(strategies))
	for i, s := range strategies {
		// Per-job layout engines keep the jobs free of shared mutable
		// state (the engine caches record layouts on demand).
		jobs[i] = core.BatchJob{
			Prog:  prog,
			Strat: newStrategy(s, layout.New(abi)),
			Opts:  coreOptions(cfg),
		}
	}
	results, jobErrs := core.AnalyzeBatchContext(ctx, jobs, cfg.Parallelism)
	reports = make([]*Report, len(results))
	canceled := false
	for i, r := range results {
		if jobErrs[i] != nil {
			err = errors.Join(err, jobErrs[i])
			continue
		}
		reports[i] = &Report{strategy: strategies[i], prog: prog, result: r}
		if stop := r.Incomplete; stop != nil && stop.Canceled() {
			canceled = true
		}
	}
	if canceled {
		err = errors.Join(err, fault.New(fault.KindCanceled, "solve", "", ctx.Err()))
	}
	return reports, err
}

func load(sources []Source, cfg Config) (*frontend.Result, error) {
	abi, err := parseABI(cfg.ABI)
	if err != nil {
		return nil, err
	}
	fsrc := make([]frontend.Source, len(sources))
	for i, s := range sources {
		fsrc[i] = frontend.Source{Name: s.Name, Text: s.Text}
	}
	return frontend.Load(fsrc, frontend.Options{
		ABI:                abi,
		ModelMainArgs:      cfg.Options.ModelMainArgs,
		NoLibSummaries:     cfg.Options.NoLibSummaries,
		CloneAllocWrappers: cfg.Options.CloneAllocWrappers,
	})
}

func solve(ctx context.Context, prog *ir.Program, lay *layout.Engine, cfg Config) *Report {
	result := core.AnalyzeContext(ctx, prog, newStrategy(cfg.Strategy, lay), coreOptions(cfg))
	return &Report{strategy: cfg.Strategy, prog: prog, result: result}
}

func coreOptions(cfg Config) core.Options {
	par := cfg.Options.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return core.Options{
		NoPtrArithSmear: cfg.Options.NoPtrArithSmear,
		UseUnknown:      cfg.Options.FlagMisuse,
		NoCycleElim:     cfg.Options.NoCycleElim,
		NoPrepass:       cfg.Options.NoPrepass,
		TrackPeakMem:    cfg.Options.TrackPeakMem,
		Limits:          cfg.Limits.core(),
		Parallelism:     par,
	}
}

func parseABI(name string) (*layout.ABI, error) {
	switch name {
	case "", "lp64":
		return layout.LP64, nil
	case "ilp32":
		return layout.ILP32, nil
	case "packed1":
		return layout.Packed1, nil
	}
	return nil, fmt.Errorf("pointsto: unknown ABI %q (want lp64, ilp32 or packed1)", name)
}

func newStrategy(s Strategy, lay *layout.Engine) core.Strategy {
	switch s {
	case CollapseAlways:
		return core.NewCollapseAlways()
	case CollapseOnCast:
		return core.NewCollapseOnCast()
	case Offsets:
		return core.NewOffsets(lay)
	default:
		return core.NewCIS()
	}
}

// Report is the queryable result of one analysis run. All query methods are
// deterministic and safe for concurrent use after the Report is built.
type Report struct {
	strategy Strategy
	prog     *ir.Program
	result   *core.Result

	nameOnce sync.Once
	byName   map[string][]*ir.Object
	sumOnce  sync.Once
	sum      *modref.Summary
}

// Strategy returns the instance that produced the report.
func (r *Report) Strategy() Strategy { return r.strategy }

// Incomplete describes an analysis run that stopped before fixpoint — a
// Config.Limits bound tripped or the run was canceled. The report's facts
// stay sound for what was derived: every recorded points-to edge is
// justified by the inference rules, so the result is a subset of the full
// fixpoint. Absent facts, however, mean "not derived yet", not "cannot
// point to" — negative queries (MayAlias == false, an empty PointsTo) are
// NOT conclusive on an incomplete report.
type Incomplete struct {
	// Reason is machine-readable: "max-steps", "max-facts", "max-cells",
	// "canceled" or "deadline".
	Reason string
	// Steps, Facts and Cells are the solver counters at the stop.
	Steps, Facts, Cells int
	// Limit is the bound that tripped; 0 for cancellation.
	Limit int
}

func (inc *Incomplete) String() string {
	return fmt.Sprintf("incomplete (%s): %d steps, %d facts, %d cells",
		inc.Reason, inc.Steps, inc.Facts, inc.Cells)
}

// Incomplete returns nil for a run that reached fixpoint, and the stop
// description when a resource limit or cancellation ended the run early.
func (r *Report) Incomplete() *Incomplete {
	stop := r.result.Incomplete
	if stop == nil {
		return nil
	}
	return &Incomplete{
		Reason: string(stop.Reason),
		Steps:  stop.Steps,
		Facts:  stop.Facts,
		Cells:  stop.Cells,
		Limit:  stop.Limit,
	}
}

// Err returns nil for a complete report and the classified error for an
// incomplete one: ErrLimit for a tripped bound, ErrCanceled for a canceled
// run. It lets callers funnel both outcomes into error handling when
// partial results are unwanted.
func (r *Report) Err() error {
	return r.result.Incomplete.AsError()
}

// Duration returns the solver's wall-clock time.
func (r *Report) Duration() time.Duration { return r.result.Duration }

// TotalFacts returns the number of points-to edges (the Figure 6 metric).
func (r *Report) TotalFacts() int { return r.result.TotalFacts() }

// NumDerefSites returns the number of static dereference sites.
func (r *Report) NumDerefSites() int { return len(r.prog.Sites) }

// DerefSetSize returns the average points-to set size over all static
// dereference sites (the Figure 4 metric), with collapsed facts expanded
// per-field for comparability.
func (r *Report) DerefSetSize() float64 { return r.result.AvgDerefSetSize() }

// index builds the name → objects map once (safe under concurrent queries).
func (r *Report) index() map[string][]*ir.Object {
	r.nameOnce.Do(func() { r.byName = nameIndex(r.prog.Objects) })
	return r.byName
}

// nameIndex maps each source-level name (a symbol's, else the object's own)
// to its objects in program order. The map is sized for one object per
// name, and a name's first object is a one-element window onto objs, so the
// common single-object name allocates nothing; a later object of the same
// name appends into a fresh array and leaves objs untouched.
func nameIndex(objs []*ir.Object) map[string][]*ir.Object {
	byName := make(map[string][]*ir.Object, len(objs))
	for i, o := range objs {
		name := o.Name
		if o.Sym != nil && o.Sym.Name != "" {
			name = o.Sym.Name
		}
		if name == "" {
			continue
		}
		if prev, ok := byName[name]; ok {
			byName[name] = append(prev, o)
		} else {
			byName[name] = objs[i : i+1 : i+1]
		}
	}
	return byName
}

// objects resolves a source-level variable or function name to its abstract
// objects (several when distinct scopes reuse the name).
func (r *Report) objects(name string) []*ir.Object {
	return r.index()[name]
}

// Names returns every queryable source-level name (variables and functions)
// in sorted order. Each entry is valid input to PointsTo and MayAlias.
func (r *Report) Names() []string {
	idx := r.index()
	out := make([]string, 0, len(idx))
	for name := range idx {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Steps returns the number of worklist steps the solver performed.
func (r *Report) Steps() int { return r.result.Steps }

// SolverStats holds the solver's counters for one run: cycle elimination,
// wave scheduling, the parallel executor, the offline prepass and the set
// interner. Each field's tags give its JSON name, unit, help text and
// determinism class (pure, schedule or machine); see the package
// documentation.
type SolverStats = core.WaveStats

// SolverStats returns the solver's counters for this run. The SCC and wave
// counters are zero when cycle elimination did not engage (the Offsets
// instance, runs under Limits, or Config ablations).
func (r *Report) SolverStats() SolverStats { return r.result.Wave }

// PointsTo returns the points-to set of the named variable's base cell as
// sorted cell names ("x", "s.s1", "heap@12", ...). Names shared by several
// scopes are conservatively unioned; unknown names yield nil. The slice may
// be shared with other callers and with Sets: it is read-only.
func (r *Report) PointsTo(name string) []string {
	return r.result.Targets(r.objects(name)...)
}

// Lookup is PointsTo with unknown-name detection: a name the analyzed
// program does not define fails with an error matching ErrUnknownName
// instead of returning the nil set that a known-but-null pointer also
// returns. New callers should prefer it (or a Session) over PointsTo.
func (r *Report) Lookup(name string) ([]string, error) {
	if len(r.objects(name)) == 0 {
		return nil, fault.Newf(fault.KindUnknownName, "query", "", "unknown name %q", name)
	}
	return r.PointsTo(name), nil
}

// MayAlias reports whether the two named pointers may reference the same
// cell, by intersecting their points-to sets. Unknown names never alias.
func (r *Report) MayAlias(a, b string) bool {
	return r.result.MayAlias(r.objects(a), r.objects(b))
}

// Set is one cell's points-to set in display form: the pointer cell ("p",
// "s.s1", ...) and its sorted target cells. Targets is shared — with every
// cell whose set the solver merged with this one, and with PointsTo's
// answers — so it is read-only.
type Set = core.Row

// Sets returns every named (non-temporary) cell with a non-empty points-to
// set, sorted by cell, with sorted targets. The returned slice is the
// caller's; the Targets slices inside it are shared and read-only.
func (r *Report) Sets() []Set { return slices.Clone(r.result.Rows()) }

// summary computes the MOD/REF side-effect summary once per report (safe
// under concurrent queries).
func (r *Report) summary() *modref.Summary {
	r.sumOnce.Do(func() {
		r.sum = modref.Compute(r.prog, r.result)
	})
	return r.sum
}

// fn resolves a defined function by name.
func (r *Report) fn(name string) *ir.Func {
	for _, fn := range r.prog.Funcs {
		if fn.Sym != nil && fn.Sym.Name == name {
			return fn
		}
	}
	return nil
}

// globals filters an effect set to named global variables and returns their
// sorted names.
func globals(set map[*ir.Object]bool) []string {
	out := make(map[*ir.Object]bool)
	for o := range set {
		if o.Kind == ir.ObjVar && o.Sym != nil && o.Sym.Global {
			out[o] = true
		}
	}
	return modref.Names(out)
}

// ModifiedGlobals returns the sorted names of global variables the named
// function may modify through pointers, directly or via calls (the MOD set
// of the classic MOD/REF side-effect problem).
func (r *Report) ModifiedGlobals(function string) []string {
	f := r.fn(function)
	if f == nil {
		return nil
	}
	return globals(r.summary().Transitive[f].Mod)
}

// ReferencedGlobals is the REF analogue of ModifiedGlobals.
func (r *Report) ReferencedGlobals(function string) []string {
	f := r.fn(function)
	if f == nil {
		return nil
	}
	return globals(r.summary().Transitive[f].Ref)
}

// Misuse describes one dereference of a possibly corrupted pointer (only
// populated under Options.FlagMisuse).
type Misuse struct {
	Pos  string // source position
	Stmt string // the normalized statement
}

// Misuses returns the flagged dereferences in program order.
func (r *Report) Misuses() []Misuse {
	out := make([]Misuse, 0, len(r.result.Misuses))
	for _, m := range r.result.Misuses {
		out = append(out, Misuse{Pos: m.Pos.String(), Stmt: m.Stmt})
	}
	return out
}
