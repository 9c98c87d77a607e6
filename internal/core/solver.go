package core

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cc/token"
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// Result is the outcome of one analysis run. It holds its facts in one
// form, the dense one: a CellTable, one Bits set per CellID and the
// cycle-merge redirect. Metrics and membership queries walk the Bits;
// string dumps read the rendering of render.go, built once on first use,
// off the solve clock. A Result is safe for concurrent use.
type Result struct {
	Strategy Strategy
	Program  *ir.Program

	table *CellTable
	dense []Bits

	// redirect maps every CellID onto its union-find representative when
	// online cycle elimination merged cells (nil otherwise): a merged
	// member's observable points-to set IS its representative's set — the
	// set every member provably converges to — so queries, dumps and
	// metrics read dense[redirect[id]] and stay byte-identical to a run
	// without merging.
	redirect []CellID

	viewOnce sync.Once
	view     *rendering

	Duration time.Duration

	// Steps counts worklist drains performed by the run.
	Steps int

	// Wave counts the constraint-graph layer's work: SCCs collapsed,
	// cells merged, waves run, and batched vs per-fact edge traversals.
	Wave WaveStats

	// Incomplete is non-nil when the solver stopped before fixpoint — a
	// resource limit tripped or the context was canceled. The facts
	// recorded up to the stop are all individually justified by the
	// inference rules (sound over what was seen); only further
	// derivations are missing, so the result is a subset of the fixpoint.
	Incomplete *Stop

	// Misuses lists flagged dereferences of possibly corrupted pointers
	// (populated only under Options.UseUnknown).
	Misuses []Misuse
}

// noBits is the (empty) set of a cell the run never interned.
var noBits Bits

// rep returns id's cycle-merge representative.
func (r *Result) rep(id CellID) CellID {
	if r.redirect != nil {
		return r.redirect[id]
	}
	return id
}

// set returns the dense points-to set of id, following the cycle-merge
// redirect when one exists. The returned set must not be modified.
func (r *Result) set(id CellID) *Bits { return &r.dense[r.rep(id)] }

// baseSet returns the points-to set of obj's base cell (empty when the run
// never interned it).
func (r *Result) baseSet(obj *ir.Object) *Bits {
	if id, ok := r.table.Find(r.Strategy.Normalize(obj, nil)); ok {
		return r.set(id)
	}
	return &noBits
}

// PointsTo returns the points-to set of the normalized cell for obj.path.
func (r *Result) PointsTo(obj *ir.Object, path ir.Path) CellSet {
	return r.PointsToCell(r.Strategy.Normalize(obj, path))
}

// PointsToCell returns a fresh copy of the points-to set of a cell (nil
// when the set is empty).
func (r *Result) PointsToCell(c Cell) CellSet {
	id, ok := r.table.Find(c)
	if !ok || r.set(id).Len() == 0 {
		return nil
	}
	set := r.set(id)
	cs := make(CellSet, set.Len())
	set.Iterate(func(t CellID) { cs[r.table.Cell(t)] = struct{}{} })
	return cs
}

// EachTarget calls fn for every cell in the points-to set of obj's base
// cell, in CellID order.
func (r *Result) EachTarget(obj *ir.Object, fn func(Cell)) {
	r.baseSet(obj).Iterate(func(t CellID) { fn(r.table.Cell(t)) })
}

// MayAlias reports whether some object of a and some object of b have
// intersecting base-cell points-to sets.
func (r *Result) MayAlias(a, b []*ir.Object) bool {
	for _, x := range a {
		for _, y := range b {
			if r.baseSet(x).intersects(r.baseSet(y)) {
				return true
			}
		}
	}
	return false
}

// SortedCells returns every cell with a non-empty points-to set in the
// stable display order of CellSet.Sorted, so dumps, graphs and golden tests
// do not depend on interning order.
func (r *Result) SortedCells() []Cell {
	var out []Cell
	for _, id := range r.render().order {
		if r.set(id).Len() > 0 {
			out = append(out, r.table.Cell(id))
		}
	}
	return out
}

// NumCells returns the number of cells the run interned — for a full solve,
// every cell any statement or fact touched; for a demand slice, only the
// cells of the explored subgraph. It is the denominator of the demand
// engine's slice-size ratio.
func (r *Result) NumCells() int { return r.table.Len() }

// TotalFacts is the total number of points-to edges (Figure 6's metric).
func (r *Result) TotalFacts() int {
	n := 0
	for i := range r.dense {
		n += r.set(CellID(i)).Len()
	}
	return n
}

// SiteSetSize returns the (expanded) points-to set size of a dereference
// site: the number of fields the dereferenced pointer may reference, with
// collapsed facts expanded per-field as in Figure 4.
func (r *Result) SiteSetSize(site *ir.DerefSite) int {
	n := 0
	r.EachTarget(site.Ptr, func(t Cell) { n += r.Strategy.ExpandedSize(t) })
	return n
}

// AvgDerefSetSize is Figure 4's metric: the average points-to set size over
// all static dereference sites.
func (r *Result) AvgDerefSetSize() float64 {
	if len(r.Program.Sites) == 0 {
		return 0
	}
	total := 0
	for _, s := range r.Program.Sites {
		total += r.SiteSetSize(s)
	}
	return float64(total) / float64(len(r.Program.Sites))
}

// Options tunes the solver; the zero value is the paper's configuration.
type Options struct {
	// NoPtrArithSmear disables the Assumption 1 rule: pointer arithmetic
	// results then keep only the operand's own targets instead of
	// smearing over every sub-field. Unsound; provided as an ablation.
	NoPtrArithSmear bool

	// Limits bounds solver resources; the zero value is unlimited. See
	// the Limits type for partial-result semantics when a bound trips.
	Limits Limits

	// NoCycleElim disables online cycle elimination and the topological
	// wave scheduler, falling back to the classic per-cell LIFO worklist.
	// Results are identical either way (the constraint-graph layer is an
	// observable-preserving optimization); provided as an ablation and a
	// kill switch.
	NoCycleElim bool

	// Parallelism is the number of workers the wave scheduler may use
	// inside one solve. 0 and 1 run the sequential executor; higher values
	// shard each wave's ranked frontier across that many workers
	// (parwave.go), with work stealing between them. Points-to fact sets
	// are byte-identical at every setting and across runs at any
	// GOMAXPROCS, and so are the pure-class counters (counters.go); the
	// schedule class is a deterministic function of (program, strategy,
	// Parallelism), and the machine class (ParSteals) depends on runtime
	// scheduling. The knob
	// is inert — sequential — whenever the constraint-graph layer is off
	// (NoCycleElim, resource Limits, or a non-exact-edge strategy).
	Parallelism int

	// UseUnknown implements the alternative §4.2.1 sketches before
	// adopting Assumption 1: pointer-arithmetic results additionally
	// carry a special Unknown value representing a possibly corrupted
	// pointer, and every dereference whose pointer may be Unknown is
	// flagged as a potential misuse of memory (Result.Misuses). The
	// paper rejects this as the *sole* strategy for being overly
	// pessimistic; here it augments the Assumption 1 treatment to
	// provide the flagging capability the paper describes.
	UseUnknown bool

	// NoPrepass disables the offline constraint-reduction prepass
	// (prepass.go) and the hash-consed set interner (bitsintern.go).
	// Both are observable-preserving optimizations — facts and Figure-3
	// counters are byte-identical either way — so the switch is an
	// ablation and a kill switch, excluded from cache keys and graph
	// identity. Like the wave layer, the pair engages only for
	// exact-edge strategies with zero Limits, and never under
	// UseUnknown or an incremental resume.
	NoPrepass bool

	// TrackPeakMem samples runtime.ReadMemStats at wave barriers (and on
	// a coarse cadence in the classic worklist) and records the highest
	// observed live-heap size in WaveStats.PeakLiveBytes. Off by default:
	// each sample is a stop-the-world sweep, so the knob is for
	// benchmarking (ptrbench -peak-mem), not production solves. The
	// sampled value is machine- and GC-schedule-dependent and is never
	// part of any identity or regression comparison.
	TrackPeakMem bool
}

// Misuse flags one dereference of a possibly corrupted pointer.
type Misuse struct {
	Pos  token.Pos
	Stmt string
	Ptr  string
}

// Analyze runs the flow-insensitive, context-insensitive fixpoint over the
// program with the given strategy.
func Analyze(prog *ir.Program, strat Strategy) *Result {
	return AnalyzeWith(prog, strat, Options{})
}

// AnalyzeWith is Analyze with explicit solver options.
func AnalyzeWith(prog *ir.Program, strat Strategy, opts Options) *Result {
	return AnalyzeContext(context.Background(), prog, strat, opts)
}

// cancelCheckEvery is how many worklist drains pass between context polls.
// Drains are microsecond-scale, so this bounds cancellation latency well
// below a millisecond while keeping the poll off the per-fact hot path.
const cancelCheckEvery = 64

// AnalyzeContext is AnalyzeWith under a context: cancellation (or the
// deadline) stops the fixpoint between worklist drains and the partial
// result comes back with Result.Incomplete set. A nil Incomplete means the
// run reached fixpoint.
func AnalyzeContext(ctx context.Context, prog *ir.Program, strat Strategy, opts Options) *Result {
	s := newSolver(ctx, prog, strat, opts)
	start := time.Now()
	s.run()
	return s.finish(start)
}

// SeedFact pre-loads one cell's known points-to targets before the
// fixpoint runs: the incremental-resume path seeds a fresh solver with
// facts proven by a prior solve over the unchanged slice of the program.
type SeedFact struct {
	Cell    Cell
	Targets []Cell
}

// AnalyzeSeededContext is AnalyzeContext with the fact store pre-loaded.
// The caller warrants that every seeded fact is a member of the program's
// fixpoint (internal/incr proves this with its taint analysis); the solver
// then converges to exactly the fixpoint an unseeded run reaches — seeded
// facts enter pts with no pending delta, so they behave precisely like
// facts whose propagation already completed: watcher registration replays
// them once and copy-edge creation pushes them across, but no drain
// cascade re-derives them. Seeding composes only with zero Limits (the
// per-fact trip accounting is defined against a cold schedule); callers
// must fall back to a cold solve otherwise.
func AnalyzeSeededContext(ctx context.Context, prog *ir.Program, strat Strategy, opts Options, seeds []SeedFact) *Result {
	return AnalyzeResumeContext(ctx, prog, strat, opts, ResumeState{Seeds: seeds})
}

// ResumeState is the frozen slice of a prior solve that a warm run starts
// from. Beyond the seeded facts it can carry the prior solve's copy edges
// and a set of statements whose constraint generation the prior solve
// already performed in full:
//
//   - Edges are installed before the fixpoint with no source replay and no
//     strategy Resolve call. The caller warrants each edge was present in
//     the prior solve between cells whose seeded sets are complete, so the
//     prior fixpoint's closure guarantees the destination set already
//     contains everything the skipped replay would have pushed.
//   - SkipReplay statements register their watchers WITHOUT the single-fire
//     replay of facts present at registration, and skip their OpAddrOf /
//     OpCopy seeding work entirely. The caller warrants that the facts a
//     skipped statement would have been replayed (exactly the seeded sets
//     of its watched cells — nothing else is in pts before the run) are the
//     ones the prior solve already fired through it, that every cell it
//     writes is seeded with its complete final set, and that its copy edges
//     are in Edges. New facts arriving during the run still fire skipped
//     statements normally (drains and SCC merge deliveries only ever carry
//     facts absent from a cell's set, which seeded facts never are).
//
// The elided firings' Figure-3 counter contributions are NOT recorded on
// the strategy — the caller accounts for them separately (internal/incr
// carries per-statement contributions captured from the prior solve), which
// is what keeps a warm solve's counters byte-identical to a cold one while
// doing only delta work.
type ResumeState struct {
	Seeds      []SeedFact
	Edges      []Edge
	SkipReplay map[*ir.Stmt]bool
}

// AnalyzeResumeContext is the generalized seeded entry point: it loads the
// ResumeState (seeds, then restored edges, then the replay-suppression set)
// and runs the ordinary fixpoint. With only Seeds set it is exactly
// AnalyzeSeededContext. Same Limits caveat: zero Limits only.
func AnalyzeResumeContext(ctx context.Context, prog *ir.Program, strat Strategy, opts Options, rs ResumeState) *Result {
	s := newSolver(ctx, prog, strat, opts)
	if len(rs.Seeds) > 0 || len(rs.Edges) > 0 || rs.SkipReplay != nil {
		// A warm resume starts from a prior solve's state, which the
		// prepass signature computation does not model (seeded facts are
		// indistinguishable from direct ones); skip both it and the
		// interner. Observables are schedule-independent, so warm and
		// cold solves still agree byte for byte.
		s.prep, s.intern = nil, nil
	}
	s.skip = rs.SkipReplay
	start := time.Now()
	s.seed(rs.Seeds)
	for _, e := range rs.Edges {
		s.restoreEdge(e)
	}
	s.run()
	return s.finish(start)
}

// seed pre-loads the fact store. Seeded facts enter pts only — never delta —
// so they are invisible to drains and merge obligations.
func (s *solver) seed(seeds []SeedFact) {
	for _, sf := range seeds {
		// Intern the targets before taking the set pointer: interning can
		// grow (and reallocate) s.pts.
		ids := s.getScratch()
		for _, t := range sf.Targets {
			ids = append(ids, s.cellID(t))
		}
		c := s.cellID(sf.Cell)
		set := &s.pts[c]
		isNew := set.Len() == 0
		s.seedBits(set)
		added := 0
		for _, id := range ids {
			if set.Add(id) {
				added++
			}
		}
		if added > 0 {
			s.nfacts += added
			if isNew {
				s.ncells++
				s.recordFactObj(c)
			}
		}
		s.putScratch(ids)
	}
}

// restoreEdge installs a copy edge proven by a prior solve: deduplicated
// like addEdge and indexed identically, but with no replay of the source's
// facts (the ResumeState contract makes the replay a no-op) and no strategy
// involvement. It runs before any statement processing, so find() is the
// identity and no merge bookkeeping exists yet to update.
func (s *solver) restoreEdge(e Edge) {
	src := s.cellID(e.Src)
	dst := s.cellID(e.Dst)
	if s.edgeSeen(src, dst, e.Size) {
		return
	}
	if s.exact && e.Size == 0 {
		if cap(s.exactOut[src]) == 0 {
			s.exactOut[src] = s.arenaIDs(2)
		}
		if s.waves {
			s.edgesSinceSCC++
			if len(s.exactOut[src]) == 0 {
				s.exactSrcs = append(s.exactSrcs, src)
			}
		}
		s.exactOut[src] = append(s.exactOut[src], dst)
		return
	}
	s.hasRange = true
	if s.edgeIdx == nil {
		s.edgeIdx = make(map[*ir.Object][]Edge)
	}
	s.edgeIdx[e.Src.Obj] = append(s.edgeIdx[e.Src.Obj], e)
}

// Facts calls fn for every cell with a non-empty points-to set, in
// interning order, with its targets in CellID order: the form the
// incremental-resume subsystem captures. fn owns the targets slice.
func (r *Result) Facts(fn func(c Cell, targets []Cell)) {
	for i, c := range r.table.cells {
		set := r.set(CellID(i))
		if set.Len() == 0 {
			continue
		}
		targets := make([]Cell, 0, set.Len())
		set.Iterate(func(t CellID) { targets = append(targets, r.table.cells[t]) })
		fn(c, targets)
	}
}

// newSolver builds a solver over the program with empty fact state; run (or
// the demand engine's pump) drives it to fixpoint afterwards.
func newSolver(ctx context.Context, prog *ir.Program, strat Strategy, opts Options) *solver {
	// Cells per object: one for a scalar, one per leaf for a record. A
	// quarter again over the object count holds the hub-and-chains
	// programs (1.0 cells per object) in one allocation; the cast-heavy
	// generated ones (about 1.35) grow once.
	nobj := len(prog.Objects)
	ncells := nobj + nobj/4
	// Edges: a copy statement adds about one; a load, store or call adds
	// one per pointee, about four on the cast-heavy generated programs.
	copies := 0
	for _, st := range prog.Stmts {
		if st.Op == ir.OpCopy {
			copies++
		}
	}
	// Slots per object: the nodes of its leaf table under the field
	// strategies, one otherwise.
	nodes := func(*ir.Object) int32 { return 1 }
	if nc, ok := strat.(interface{ nodeCount(*ir.Object) int32 }); ok {
		nodes = nc.nodeCount
	}
	// Only Offsets has range edges, and it keys cells by byte offset.
	exact := false
	if ee, ok := strat.(exactEdger); ok {
		exact = ee.exactEdges()
	}
	s := &solver{
		ctx:      ctx,
		limits:   opts.Limits,
		prog:     prog,
		strat:    strat,
		opts:     opts,
		exact:    exact,
		table:    newCellTable(prog, nodes, ncells, !exact),
		exactSet: make(map[uint64]struct{}, copies+4*(len(prog.Stmts)-copies)),
		bound:    make(map[callBinding]bool),
		pts:      make([]Bits, 0, ncells),
		delta:    make([]Bits, 0, ncells),
		watchers: make([][]watch, 0, ncells),
		exactOut: make([][]CellID, 0, ncells),
	}
	// IDs are dense from 1 in a lowered program, and under range edges
	// most objects get fact cells.
	if !exact {
		s.factObjs.reserve(nobj + 1)
	}
	// Wave scheduling + online cycle elimination: exact-edge strategies
	// only (range edges are excluded from collapse by construction), and
	// only without fact/cell limits — merging equalizes whole sets at
	// once, which the per-fact trip accounting of MaxFacts/MaxCells (and
	// the step accounting of MaxSteps) is defined against.
	s.waves = s.exact && !opts.NoCycleElim && opts.Limits == (Limits{})
	// The parallel wave executor needs the wave scheduler, and the PTRTRACE
	// debug dump needs the strictly sequential schedule to stay readable.
	if opts.Parallelism > 1 && s.waves && traceCell == "" {
		s.par = newParExec(opts.Parallelism)
	}
	// Offline prepass + set interner: exact edges and zero limits for the
	// same reasons as the wave layer (signatures are defined over the
	// static exact-edge graph; merging equalizes sets wholesale), no
	// UseUnknown (the unknown object's facts are injected per rule firing,
	// outside the static signature model), and a sequential trace. The
	// pair is independent of NoCycleElim: merges ride the same union-find
	// whether or not the wave scheduler runs.
	if s.exact && !opts.NoPrepass && opts.Limits == (Limits{}) && !opts.UseUnknown && traceCell == "" {
		s.prep = &prepState{}
		s.intern = newBitsIntern()
	}
	if opts.UseUnknown {
		s.unknown = &ir.Object{ID: -1, Name: "<unknown>", Kind: ir.ObjVar}
	}
	return s
}

// finish packages the solver's state as a Result.
func (s *solver) finish(start time.Time) *Result {
	if s.intern != nil && s.stop == nil {
		// Final interning pass: the retained Result shares one allocation
		// per distinct set value, and merged-away members release their
		// dead pre-merge storage (queries read the representative through
		// Result.redirect, never the member's own set).
		s.internFinal()
	}
	s.samplePeak()
	s.stats.TraversalsSaved = max(0, s.stats.FactCrossings-s.stats.EdgeBatches)
	res := &Result{
		Strategy:   s.strat,
		Program:    s.prog,
		table:      s.table,
		dense:      s.pts,
		Duration:   time.Since(start),
		Steps:      s.steps,
		Incomplete: s.stop,
		Misuses:    s.misuses,
		Wave:       s.stats,
	}
	if s.merged {
		red := make([]CellID, len(s.pts))
		for i := range red {
			red[i] = s.find(CellID(i))
		}
		res.redirect = red
	}
	return res
}

// watch is a registered statement premise: when a new points-to fact lands
// on the watched cell, the statement's rule fires with that fact.
type watch struct {
	stmt *ir.Stmt
	role int // for OpMemCopy: 0 = destination pointer, 1 = source pointer
}

type callBinding struct {
	stmt *ir.Stmt
	fn   *ir.Object
}

// memPairID identifies one (destination target, source target) pair of a
// memcopy statement, keyed by interned ids. See memPair in refsolver.go for
// why pairs are resolved exactly once.
type memPairID struct {
	stmt     *ir.Stmt
	dst, src CellID
}

// edgeKey dedups range copy edges by interned endpoints — cheaper to hash
// than an Edge (two Cell structs), and equivalent since interning is
// injective. Exact edges (Size 0) pack their endpoints into one uint64.
type edgeKey struct {
	dst, src CellID
	size     int64
}

// solver runs the Figure-2 fixpoint on the dense representation: every cell
// is interned to a CellID once — when a strategy hands it across the API
// boundary — and all per-fact state (points-to sets, deltas, edge indexes,
// watcher lists) is indexed by id. The hot loop therefore never hashes a
// Cell struct and never allocates per fact; batch propagation through copy
// edges is a word-wise Bits union.
type solver struct {
	prog  *ir.Program
	strat Strategy
	opts  Options

	// Resource governance: the fixpoint polls ctx every cancelCheckEvery
	// drains and compares counters against limits as facts are added.
	// When either trips, stop is set and addFact freezes — no new facts
	// or worklist entries — so the run winds down with the partial (but
	// individually sound) fact set it had.
	ctx    context.Context
	limits Limits
	steps  int   // worklist drains performed
	nfacts int   // points-to edges recorded
	ncells int   // distinct cells holding facts (non-empty pts sets)
	stop   *Stop // non-nil once the run is aborted

	unknown *ir.Object // non-nil under Options.UseUnknown
	misuses []Misuse
	flagged map[*ir.Stmt]bool

	table     *CellTable
	normCache objMap[CellID] // Normalize(obj, nil) interned, per object

	pts      []Bits           // points-to sets, indexed by CellID
	delta    []Bits           // pending new targets, indexed by CellID
	dirty    []CellID         // cells whose delta is non-empty
	watchers [][]watch        // statement premises, indexed by CellID
	factObjs objMap[[]CellID] // cells with facts, per object (for edges)

	// Copy-edge dedup: exact edges by dst<<32 | src, range edges by key.
	exactSet map[uint64]struct{}
	rangeSet map[edgeKey]bool
	// Copy-edge indexes. Strategies whose PropagateEdge fires exactly on
	// the edge's source cell (the field-based instances) get their edges
	// indexed by source CellID — drain then walks a []CellID instead of
	// filtering every edge on the source object. Range edges (Offsets) and
	// edges from unknown strategies stay in the by-object index and go
	// through PropagateEdge.
	exact    bool
	exactOut [][]CellID            // exact edges: src id → dst ids
	edgeIdx  map[*ir.Object][]Edge // range/generic edges by source object
	hasRange bool

	bound   map[callBinding]bool
	memDone map[memPairID]bool

	// skip, when non-nil (incremental resume), marks statements whose
	// constraint generation the prior solve already performed: initStmt
	// registers their watchers without the single-fire replay and omits
	// their AddrOf/Copy work. See ResumeState.
	skip map[*ir.Stmt]bool

	// noteEdge, when set (demand engine only), observes every deduplicated
	// copy edge as (destination object, source object) — the demand
	// engine's backward-dependency signal.
	noteEdge func(dst, src *ir.Object)

	// prep, when non-nil, collects the seeding-time inputs of the offline
	// constraint-reduction prepass, which run() executes between statement
	// seeding and the fixpoint (prepass.go). intern, when non-nil, is the
	// per-solve hash-consed set pool with its copy-on-write flags
	// (bitsintern.go). Both are nil under Options.NoPrepass, for demand
	// solvers, and on incremental resumes.
	prep   *prepState
	intern *bitsIntern

	// Constraint-graph layer (congraph.go). waves gates the whole layer:
	// it is on for exact-edge strategies running without fact/cell limits
	// (merging equalizes sets wholesale, which per-fact limit accounting
	// cannot attribute). parent is the union-find forest, rank the last
	// Tarjan pass's topological order, redundant the evidence counter
	// that re-arms detection, merged whether any SCC collapsed.
	waves         bool
	merged        bool
	par           *parExec // non-nil when Options.Parallelism > 1 and waves are on
	parent        []CellID
	rank          []int32
	redundant     int
	edgesSinceSCC int // exact edges added since the last detection pass
	stats         WaveStats

	// Reusable buffers for the wave scheduler and Tarjan passes, so a solve
	// that runs detection more than once (or many waves) does not reallocate
	// its O(cells) working state each time.
	topo      []CellID       // ranked subgraph in Tarjan pop order (sinks first)
	waveBuf   []uint64       // packed ids of one wave's residual (unranked) cells
	dirtyPrev []CellID       // previous wave's dirty list, swapped to avoid reallocation
	exactSrcs []CellID       // cells with exact out-edges: Tarjan's root set (may hold dups)
	sccIndex  []int32        // Tarjan visit numbers (0 = unvisited outside a pass)
	sccLow    []int32        // Tarjan low-links
	sccOn     []bool         // on-stack flags
	sccSeen   []CellID       // vertices visited this pass, for O(visited) index reset
	sccStack  []CellID       // Tarjan component stack
	sccFrames []sccFrame     // explicit DFS stack
	mergeBuf  []mergePending // mergeCells' per-member snapshots
	mergeNeed []CellID       // backing store of the snapshots' need lists

	// Reusable buffers: id snapshots for iterate-while-mutating sites and
	// drained delta bitsets. Both are stacks so reentrant rule firing
	// (applyRule → addEdge → replay) gets its own buffer.
	scratch  [][]CellID
	bitsFree []Bits

	// Chunked arenas: most per-cell slices (a points-to set's first blocks,
	// a cell's watcher list, an exact-edge adjacency list) stay tiny, so
	// they carve their initial capacity out of shared slabs instead of
	// allocating individually. A slice that outgrows its slot falls back
	// to the normal append path; the abandoned slot is the price of one
	// oversized set, not a leak.
	blockArena []bitsBlock
	watchArena []watch
	idArena    []CellID
}

// arenaBlocks returns an empty capacity-c block slice carved from the slab.
func (s *solver) arenaBlocks(c int) []bitsBlock {
	if len(s.blockArena) < c {
		s.blockArena = make([]bitsBlock, 512)
	}
	out := s.blockArena[:0:c]
	s.blockArena = s.blockArena[c:]
	return out
}

// seedBits gives an untouched Bits its initial arena-backed capacity.
func (s *solver) seedBits(b *Bits) {
	if cap(b.blocks) == 0 {
		b.blocks = s.arenaBlocks(4)
	}
}

func (s *solver) arenaWatch(c int) []watch {
	if len(s.watchArena) < c {
		s.watchArena = make([]watch, 256)
	}
	out := s.watchArena[:0:c]
	s.watchArena = s.watchArena[c:]
	return out
}

func (s *solver) arenaIDs(c int) []CellID {
	if len(s.idArena) < c {
		s.idArena = make([]CellID, 512)
	}
	out := s.idArena[:0:c]
	s.idArena = s.idArena[c:]
	return out
}

func (s *solver) norm(obj *ir.Object, path ir.Path) Cell {
	return s.strat.Normalize(obj, path)
}

// cellID interns c and grows the id-indexed state to cover it.
func (s *solver) cellID(c Cell) CellID {
	id := s.table.ID(c)
	if n := s.table.Len(); n > len(s.pts) {
		if n <= cap(s.pts) {
			s.pts = s.pts[:n]
			s.delta = s.delta[:n]
			s.watchers = s.watchers[:n]
			s.exactOut = s.exactOut[:n]
		} else {
			grow := n * 2
			pts := make([]Bits, n, grow)
			copy(pts, s.pts)
			s.pts = pts
			delta := make([]Bits, n, grow)
			copy(delta, s.delta)
			s.delta = delta
			watchers := make([][]watch, n, grow)
			copy(watchers, s.watchers)
			s.watchers = watchers
			exactOut := make([][]CellID, n, grow)
			copy(exactOut, s.exactOut)
			s.exactOut = exactOut
		}
	}
	return id
}

// normID interns Normalize(obj, nil) through a per-object cache: rule
// firings normalize the same destination objects over and over.
func (s *solver) normID(obj *ir.Object) CellID {
	if id, ok := s.normCache.get(obj); ok {
		return id
	}
	id := s.cellID(s.norm(obj, nil))
	*s.normCache.at(obj) = id
	return id
}

func (s *solver) getScratch() []CellID {
	if n := len(s.scratch); n > 0 {
		b := s.scratch[n-1]
		s.scratch = s.scratch[:n-1]
		return b[:0]
	}
	return make([]CellID, 0, 64)
}

func (s *solver) putScratch(b []CellID) { s.scratch = append(s.scratch, b) }

func (s *solver) takeBits() Bits {
	if n := len(s.bitsFree); n > 0 {
		b := s.bitsFree[n-1]
		s.bitsFree = s.bitsFree[:n-1]
		return b
	}
	return Bits{}
}

func (s *solver) recycleBits(b Bits) {
	b.Clear()
	s.bitsFree = append(s.bitsFree, b)
}

func (s *solver) run() {
	// Seed: process every statement once, polling for cancellation on the
	// same cadence as the fixpoint loop (a pathological unit can make even
	// seeding expensive — AddrOf replays and Copy resolves run here).
	for i, st := range s.prog.Stmts {
		if s.stop != nil {
			return
		}
		if i%cancelCheckEvery == 0 {
			s.checkCtx()
		}
		s.initStmt(st)
	}
	if s.prep != nil && s.stop == nil {
		// Offline constraint reduction: merge pointer-equivalent cells
		// over the static graph before any fixpoint propagation pays for
		// them (prepass.go).
		s.runPrepass()
	}
	s.samplePeak()
	if s.waves {
		// Topological wave scheduling with online cycle elimination
		// (congraph.go); observables are identical to the classic loop.
		s.runWaves()
		return
	}
	s.runLoop()
}

// runLoop is the classic per-cell LIFO fixpoint over cell deltas. It is the
// schedule used without wave mode, and the propagation phase the demand
// engine alternates with slice expansion.
func (s *solver) runLoop() {
	for len(s.dirty) > 0 {
		if s.stop != nil {
			return
		}
		if s.limits.MaxSteps > 0 && s.steps >= s.limits.MaxSteps {
			s.abort(StopMaxSteps, s.limits.MaxSteps, nil)
			return
		}
		if s.steps%cancelCheckEvery == 0 {
			if s.checkCtx(); s.stop != nil {
				return
			}
		}
		if s.opts.TrackPeakMem && s.steps%peakSampleEvery == 0 {
			// No wave barriers in the classic loop: sample on a coarse
			// drain cadence instead.
			s.samplePeak()
		}
		s.steps++
		c := s.dirty[len(s.dirty)-1]
		s.dirty = s.dirty[:len(s.dirty)-1]
		s.drain(c)
	}
}

// checkCtx polls the run's context and aborts on cancellation.
func (s *solver) checkCtx() {
	if s.ctx == nil || s.stop != nil {
		return
	}
	if err := s.ctx.Err(); err != nil {
		s.abort(stopFor(err), 0, err)
	}
}

// abort freezes the solver with the given stop reason; the first abort wins.
func (s *solver) abort(reason StopReason, limit int, err error) {
	if s.stop != nil {
		return
	}
	s.stop = &Stop{
		Reason: reason,
		Steps:  s.steps,
		Facts:  s.nfacts,
		Cells:  s.ncells,
		Limit:  limit,
		Err:    err,
	}
}

func (s *solver) initStmt(st *ir.Stmt) {
	if s.skip != nil && s.skip[st] {
		s.initSkipped(st)
		return
	}
	switch st.Op {
	case ir.OpAddrOf:
		dst, tgt := s.normID(st.Dst), s.cellID(s.norm(st.Src, st.Path))
		if s.prep != nil {
			// The prepass needs the direct (address-of) facts separate
			// from facts that arrived by propagation, and by seeding time
			// the two are indistinguishable in pts — so log them here.
			s.prep.direct = append(s.prep.direct, [2]CellID{dst, tgt})
		}
		s.addFact(dst, tgt)

	case ir.OpCopy:
		dst := s.norm(st.Dst, nil)
		src := s.norm(st.Src, st.Path)
		s.resolve(dst, src, st.Dst.Type)

	case ir.OpAddrField, ir.OpLoad:
		s.watch(s.normID(st.Ptr), st, 0)

	case ir.OpStore:
		if st.Src == nil {
			return // store of a pointer-free value
		}
		s.watch(s.normID(st.Ptr), st, 0)

	case ir.OpMemCopy:
		s.watch(s.normID(st.Ptr), st, 0)
		s.watch(s.normID(st.Src), st, 1)

	case ir.OpPtrArith:
		s.watch(s.normID(st.Src), st, 0)

	case ir.OpCall:
		s.watch(s.normID(st.Ptr), st, 0)
	}
}

// initSkipped processes a statement the ResumeState marked as already
// performed by the prior solve: its AddrOf fact is seeded, its Copy/rule
// edges are restored, and its elided rule firings are carried in the
// caller's counter contribution — so only the watcher registrations remain,
// with the replay suppressed. Facts arriving after registration (always new
// facts: seeded ones never enter a delta, a merge obligation, or a drain)
// fire it like any other watcher.
func (s *solver) initSkipped(st *ir.Stmt) {
	switch st.Op {
	case ir.OpAddrField, ir.OpLoad, ir.OpCall, ir.OpPtrArith:
		ptr := st.Ptr
		if st.Op == ir.OpPtrArith {
			ptr = st.Src
		}
		s.register(s.normID(ptr), st, 0)
	case ir.OpStore:
		if st.Src != nil {
			s.register(s.normID(st.Ptr), st, 0)
		}
	case ir.OpMemCopy:
		s.register(s.normID(st.Ptr), st, 0)
		s.register(s.normID(st.Src), st, 1)
	}
	// OpAddrOf, OpCopy: nothing left to do.
}

// register appends a watcher with no replay.
func (s *solver) register(c CellID, st *ir.Stmt, role int) {
	c = s.find(c)
	if cap(s.watchers[c]) == 0 {
		s.watchers[c] = s.arenaWatch(2)
	}
	s.watchers[c] = append(s.watchers[c], watch{stmt: st, role: role})
}

// watch registers the statement and replays existing facts at the cell.
// The replay is single-fire: facts still pending in the cell's delta are
// skipped here because the coming drain (or SCC merge delivery) fires them
// to every registered watcher, including this one. Each (watcher, fact)
// pair therefore fires exactly once regardless of when the watcher
// registered relative to the fact's propagation — the invariant mergeSCC's
// obligation snapshot assumes, and what makes the Figure-3 counters a pure
// function of (program, strategy) rather than of the schedule, so a warm
// incremental resume reproduces them byte-identically.
func (s *solver) watch(c CellID, st *ir.Stmt, role int) {
	c = s.find(c)
	if cap(s.watchers[c]) == 0 {
		s.watchers[c] = s.arenaWatch(2)
	}
	s.watchers[c] = append(s.watchers[c], watch{stmt: st, role: role})
	if s.pts[c].Len() > 0 {
		buf := s.pts[c].AppendTo(s.getScratch())
		if s.delta[c].Len() > 0 {
			kept := buf[:0]
			for _, tgt := range buf {
				if !s.delta[c].Has(tgt) {
					kept = append(kept, tgt)
				}
			}
			buf = kept
		}
		for _, tgt := range buf {
			s.applyRule(watch{stmt: st, role: role}, s.table.Cell(tgt), tgt)
		}
		s.putScratch(buf)
	}
}

// traceCell, when set via PTRTRACE, dumps every fact added to a matching
// cell together with the rule that produced it (debug aid).
var traceCell = os.Getenv("PTRTRACE")

// addFact records pointsTo(c, tgt) and schedules propagation of the delta.
// Once the run is aborted the solver is frozen: no new facts, no new
// worklist entries — the fact set stays exactly what had been derived.
func (s *solver) addFact(c, tgt CellID) {
	if s.stop != nil {
		return
	}
	c = s.find(c)
	set := &s.pts[c]
	isNew := set.Len() == 0
	if isNew && s.limits.MaxCells > 0 && s.ncells >= s.limits.MaxCells {
		s.abort(StopMaxCells, s.limits.MaxCells, nil)
		return
	}
	if s.sharedSet(c) {
		if set.Has(tgt) {
			return // no mutation: keep sharing the interned allocation
		}
		s.cowSet(c)
	}
	s.seedBits(set)
	if !set.Add(tgt) {
		return
	}
	if traceCell != "" {
		cc := s.table.Cell(c)
		if strings.Contains(cc.String(), traceCell) {
			fmt.Printf("TRACE %s += %s\n", cc, s.table.Cell(tgt))
		}
	}
	if isNew {
		s.ncells++
	}
	s.nfacts++
	if s.limits.MaxFacts > 0 && s.nfacts >= s.limits.MaxFacts {
		s.abort(StopMaxFacts, s.limits.MaxFacts, nil)
		// The fact that tripped the limit stays recorded (it is sound);
		// only propagation of it is skipped.
		return
	}
	if isNew {
		s.recordFactObj(c)
	}
	if s.delta[c].Len() == 0 {
		s.dirty = append(s.dirty, c)
	}
	s.seedBits(&s.delta[c])
	s.delta[c].Add(tgt)
}

// recordFactObj indexes a newly non-empty cell under its object for range edges.
func (s *solver) recordFactObj(c CellID) {
	if s.exact {
		return
	}
	lst := s.factObjs.at(s.table.Cell(c).Obj)
	if cap(*lst) == 0 {
		*lst = s.arenaIDs(4)
	}
	*lst = append(*lst, c)
}

// mergeFrom unions src's points-to set into dst's, pushing exactly the new
// facts, and reports how many were new (the cycle-detection trigger watches
// for repeated zero-gain merges). It is the batch form of addFact used for
// copy-edge propagation: with no fact/cell limits configured (the common
// case) the union is a word-wise Bits merge with no per-fact work at all;
// under limits it falls back to per-fact accounting so trip points match
// addFact exactly.
func (s *solver) mergeFrom(dst CellID, src *Bits) int {
	dst = s.find(dst)
	if s.stop != nil || src.Len() == 0 || src == &s.pts[dst] {
		return 0
	}
	if s.limits.MaxFacts > 0 || s.limits.MaxCells > 0 {
		before := s.pts[dst].Len()
		buf := src.AppendTo(s.getScratch())
		for _, tgt := range buf {
			s.addFact(dst, tgt)
		}
		s.putScratch(buf)
		return s.pts[dst].Len() - before
	}
	set := &s.pts[dst]
	isNew := set.Len() == 0
	if s.sharedSet(dst) {
		if src.n <= set.n && set.subsumes(src) {
			return 0 // no-gain merge: keep sharing the interned allocation
		}
		s.cowSet(dst)
	}
	s.seedBits(set)
	buf := set.UnionDiff(src, s.getScratch())
	added := len(buf)
	if len(buf) > 0 {
		if traceCell != "" {
			cc := s.table.Cell(dst)
			if strings.Contains(cc.String(), traceCell) {
				for _, tgt := range buf {
					fmt.Printf("TRACE %s += %s\n", cc, s.table.Cell(tgt))
				}
			}
		}
		if isNew {
			s.ncells++
			s.recordFactObj(dst)
		}
		s.nfacts += len(buf)
		d := &s.delta[dst]
		if d.Len() == 0 {
			s.dirty = append(s.dirty, dst)
		}
		s.seedBits(d)
		for _, tgt := range buf {
			d.Add(tgt)
		}
	}
	s.putScratch(buf)
	return added
}

// drain pushes a cell's pending delta through copy edges and statement
// premises. Rules fired here may grow the delta of any cell, including c
// itself; addFact re-enqueues it in that case.
func (s *solver) drain(c CellID) {
	if s.delta[c].Len() == 0 {
		return
	}
	batch := s.delta[c]
	s.delta[c] = s.takeBits()
	// Exact copy edges out of this cell (field strategies): whole-batch
	// bitset merges. The slice header snapshots the edge list: edges added
	// while draining replay existing facts themselves (addEdge), so they
	// must not also see this batch.
	for _, dst := range s.exactOut[c] {
		rd := s.find(dst)
		if rd == c {
			continue // self-loop left by a merge: delta ⊆ pts already
		}
		s.stats.EdgeBatches++
		s.stats.FactCrossings += batch.Len()
		if s.mergeFrom(rd, &batch) == 0 {
			s.redundant++ // zero-gain merge: evidence of a cycle
		} else {
			s.redundant = 0
		}
	}
	// Range/generic edges whose source object matches, filtered through
	// the strategy's PropagateEdge. (Mutually exclusive with wave mode:
	// exactEdger strategies never emit Size != 0 edges, so hasRange implies
	// the identity find() and no merged cells.)
	if s.hasRange {
		cCell := s.table.Cell(c)
		for _, e := range s.edgeIdx[cCell.Obj] {
			if dst, ok := s.strat.PropagateEdge(e, cCell); ok {
				s.stats.EdgeBatches++
				s.stats.FactCrossings += batch.Len()
				s.mergeFrom(s.cellID(dst), &batch)
			}
		}
	}
	// Statement premises on this cell.
	for _, w := range s.watchers[c] {
		buf := batch.AppendTo(s.getScratch())
		for _, tgt := range buf {
			s.applyRule(w, s.table.Cell(tgt), tgt)
		}
		s.putScratch(buf)
	}
	s.recycleBits(batch)
}

// resolve adds the copy edges of resolve(dst, src, τ). addEdge never calls
// back into the strategy's Resolve, so the result (possibly the strategy's
// working buffer) stays intact while it is walked.
func (s *solver) resolve(dst, src Cell, τ *types.Type) {
	for _, e := range s.strat.Resolve(dst, src, τ) {
		s.addEdge(e)
	}
}

// edgeSeen reports whether the copy edge src → dst of the given size was
// already added, recording it if not.
func (s *solver) edgeSeen(src, dst CellID, size int64) bool {
	if size == 0 {
		k := uint64(dst)<<32 | uint64(src)
		if _, ok := s.exactSet[k]; ok {
			return true
		}
		s.exactSet[k] = struct{}{}
		return false
	}
	k := edgeKey{dst: dst, src: src, size: size}
	if s.rangeSet[k] {
		return true
	}
	if s.rangeSet == nil {
		s.rangeSet = make(map[edgeKey]bool)
	}
	s.rangeSet[k] = true
	return false
}

// addEdge records a copy edge and replays existing facts at its source.
// Endpoints are interned here, so propagation and deduplication work on
// ids.
func (s *solver) addEdge(e Edge) {
	src := s.cellID(e.Src)
	dst := s.cellID(e.Dst)
	if s.edgeSeen(src, dst, e.Size) {
		return
	}
	if s.noteEdge != nil {
		s.noteEdge(e.Dst.Obj, e.Src.Obj)
	}
	if s.exact && e.Size == 0 {
		rs := s.find(src)
		if cap(s.exactOut[rs]) == 0 {
			s.exactOut[rs] = s.arenaIDs(2)
		}
		if s.waves {
			s.edgesSinceSCC++
			if len(s.exactOut[rs]) == 0 {
				s.exactSrcs = append(s.exactSrcs, rs)
			}
		}
		s.exactOut[rs] = append(s.exactOut[rs], dst)
		if rd := s.find(dst); rd != rs && s.pts[rs].Len() > 0 {
			s.stats.EdgeBatches++
			s.stats.FactCrossings += s.pts[rs].Len()
			s.mergeFrom(rd, &s.pts[rs])
		}
		return
	}
	s.hasRange = true
	if s.edgeIdx == nil {
		s.edgeIdx = make(map[*ir.Object][]Edge)
	}
	s.edgeIdx[e.Src.Obj] = append(s.edgeIdx[e.Src.Obj], e)
	lst, _ := s.factObjs.get(e.Src.Obj)
	for _, cid := range lst {
		if dst, ok := s.strat.PropagateEdge(e, s.table.Cell(cid)); ok {
			if dstID := s.cellID(dst); dstID != cid {
				s.mergeFrom(dstID, &s.pts[cid])
			}
		}
	}
}

// memCopy resolves one (dst target, src target) pair of a memcopy statement,
// skipping pairs already resolved from the other operand's watch.
func (s *solver) memCopy(st *ir.Stmt, dst, src CellID) {
	key := memPairID{stmt: st, dst: dst, src: src}
	if s.memDone[key] {
		return
	}
	if s.memDone == nil {
		s.memDone = make(map[memPairID]bool)
	}
	s.memDone[key] = true
	s.resolve(s.table.Cell(dst), s.table.Cell(src), nil)
}

// pointeeType returns the declared pointee type of a pointer-valued object.
func pointeeType(o *ir.Object) *types.Type {
	if o == nil || o.Type == nil {
		return nil
	}
	t := o.Type
	for t.Kind == types.Array {
		t = t.Elem
	}
	if t.Kind == types.Ptr {
		return t.Elem
	}
	return nil
}

// applyRule fires one statement rule for a newly discovered pointer target.
// tgt and tgtID are the same cell in both representations: rules hand Cells
// to the strategy boundary and ids to the fact store.
func (s *solver) applyRule(w watch, tgt Cell, tgtID CellID) {
	st := w.stmt
	if s.unknown != nil && tgt.Obj == s.unknown {
		// A possibly corrupted pointer reaches a dereference (or call):
		// flag it once and do not derive referents from Unknown.
		switch st.Op {
		case ir.OpAddrField, ir.OpLoad, ir.OpStore, ir.OpMemCopy, ir.OpCall:
			if s.flagged == nil {
				s.flagged = make(map[*ir.Stmt]bool)
			}
			if !s.flagged[st] {
				s.flagged[st] = true
				ptr := ""
				if st.Ptr != nil {
					ptr = st.Ptr.Name
				}
				s.misuses = append(s.misuses, Misuse{Pos: st.Pos, Stmt: st.String(), Ptr: ptr})
			}
			return
		}
	}
	switch st.Op {
	case ir.OpAddrField:
		// Rule 2: s = &((*p).α).
		dst := s.normID(st.Dst)
		for _, c := range s.strat.Lookup(pointeeType(st.Ptr), st.Path, tgt) {
			s.addFact(dst, s.cellID(c))
		}

	case ir.OpLoad:
		// Rule 4: s = *q — lookup identifies the referenced location
		// (counted, like Rule 2's lookups), then the copy is resolved
		// with the LHS type fixing the extent.
		dst := s.norm(st.Dst, nil)
		for _, loc := range s.strat.Lookup(pointeeType(st.Ptr), nil, tgt) {
			s.resolve(dst, loc, st.Dst.Type)
		}

	case ir.OpStore:
		// Rule 5: *p = t — lookup identifies the stored-to location;
		// the declared pointee type of p fixes the extent
		// (Complication 4).
		τ := pointeeType(st.Ptr)
		if τ == nil && st.Src.Type != nil {
			τ = st.Src.Type
		}
		src := s.norm(st.Src, nil)
		for _, loc := range s.strat.Lookup(τ, nil, tgt) {
			s.resolve(loc, src, τ)
		}

	case ir.OpMemCopy:
		// Block copy of unknown extent between two pointees: resolve each
		// (dst target, src target) pair exactly once.
		other := st.Src
		if w.role != 0 {
			other = st.Ptr
		}
		if id := s.find(s.normID(other)); s.pts[id].Len() > 0 {
			buf := s.pts[id].AppendTo(s.getScratch())
			if w.role == 0 {
				for _, src := range buf {
					s.memCopy(st, tgtID, src)
				}
			} else {
				for _, dst := range buf {
					s.memCopy(st, dst, tgtID)
				}
			}
			s.putScratch(buf)
		}

	case ir.OpPtrArith:
		// Assumption 1: the result may point to any sub-field of the
		// pointed-to object (or of any structure containing it, which
		// the outermost-object representation already covers). The
		// sub-fields are the statically known cells of the object; for
		// untyped heap storage this approximates interior offsets by
		// the block's base cell (see DESIGN.md §6).
		dst := s.normID(st.Dst)
		s.addFact(dst, tgtID)
		if !s.opts.NoPtrArithSmear {
			for _, c := range s.strat.CellsOf(tgt.Obj) {
				s.addFact(dst, s.cellID(c))
			}
		}
		if s.unknown != nil {
			s.addFact(dst, s.normID(s.unknown))
		}

	case ir.OpCall:
		// Context-insensitive binding.
		fn := tgt.Obj.Fn
		if fn == nil {
			return
		}
		key := callBinding{stmt: st, fn: tgt.Obj}
		if s.bound[key] {
			return
		}
		s.bound[key] = true
		for i, arg := range st.Args {
			if arg == nil {
				continue
			}
			argCell := s.norm(arg, nil)
			if i < len(fn.Params) && fn.Params[i] != nil {
				p := fn.Params[i]
				s.resolve(s.norm(p, nil), argCell, p.Type)
			} else if fn.Varargs != nil {
				s.resolve(s.norm(fn.Varargs, nil), argCell, arg.Type)
			}
		}
		if fn.Retval != nil && st.Dst != nil {
			s.resolve(s.norm(st.Dst, nil), s.norm(fn.Retval, nil), st.Dst.Type)
		}
	}
}
