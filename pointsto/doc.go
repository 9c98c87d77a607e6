// Package pointsto is the public façade of the pointer-analysis framework:
// the C front end and the tunable normalize/lookup/resolve solver of
// "Pointer Analysis for Programs with Structures and Casting" (Yong,
// Horwitz, Reps — PLDI 1999), with the four analysis instances of the paper
// exposed as a Strategy enum and the results exposed through name-based
// query methods.
//
// # Usage
//
// The session-oriented API answers queries on demand: construct a Session
// once (runs only the front end), then ask. Each query explores just the
// constraint slice backward-reachable from the queried variable, memoized
// across queries, so the first answer arrives orders of magnitude before a
// whole-program solve would:
//
//	sess, err := pointsto.NewSession([]pointsto.Source{{Name: "a.c", Text: src}},
//		pointsto.Config{Strategy: pointsto.CIS})
//	if err != nil { ... }
//	targets, err := sess.PointsTo(ctx, "p")     // {"x", "s.s1", ...}
//	aliased, err := sess.MayAlias(ctx, "p", "q")
//	rep, err := sess.Report(ctx)                // full solve, memoized
//
// Query errors carry the fault taxonomy: an unknown variable name matches
// ErrUnknownName, a canceled context ErrCanceled. Sets configured with
// Limits (partial answers by design) bypass the demand engine and answer
// from the governed exhaustive solve.
//
// Analyze is the one-shot form — a thin wrapper that builds a Session and
// returns its exhaustive Report:
//
//	report, err := pointsto.Analyze([]pointsto.Source{{Name: "a.c", Text: src}},
//		pointsto.Config{Strategy: pointsto.CIS})
//	if err != nil { ... }
//	targets := report.PointsTo("p")
//	avg := report.DerefSetSize()           // the paper's Figure 4 metric
//
// AnalyzeAll fans one translation unit across several instances (or use
// Config.Parallelism with your own loop) and returns the reports in input
// order.
//
// Within a single solve, Options.Parallelism sets the worker count of the
// work-stealing wave executor (0 defaults to GOMAXPROCS, 1 forces the
// sequential solver). The answer is byte-identical at every setting —
// fact sets, set sizes and the Figure-3 counters all match the sequential
// solve — so the knob is excluded from content-addressed cache keys
// (store.Key) and from incremental graph identity; only wall time and the
// schedule- and machine-class SolverStats counters change.
//
// Options.NoPrepass ablates the offline constraint-reduction prepass and
// the hash-consed points-to-set pool the same way: the pair changes peak
// memory and wall time, never the answer, so NoPrepass (and TrackPeakMem)
// are likewise excluded from cache keys and graph identity. The pair's
// work is visible only through SolverStats (Prep*/Intern*/PeakLiveBytes).
//
// # Counters
//
// Report.SolverStats returns the solver's counters for one run. Each field
// is declared once, with its struct tags giving the JSON name used by the
// export document and /varz, a unit, help text and a determinism class:
//
//   - pure: a function of (program, strategy), equal at every Parallelism
//     (SCCsFound, CellsMerged, Prep*; the export document's Figure-3
//     lookup/resolve counters are pure too);
//   - schedule: fixed at one Parallelism (Waves, EdgeBatches,
//     FactCrossings, TraversalsSaved, ParWaves, ParShards, ParPendings,
//     Intern*);
//   - machine: varies run to run (ParSteals, PeakLiveBytes).
//
// # Incremental re-analysis
//
// Edit-heavy traffic can resume instead of re-solving: Session.Update takes
// the edited sources and returns a fresh solved Session, re-deriving only
// the slice the edit can reach while seeding everything else from the old
// fixpoint. Session.Graph captures the solved state as a persistent Graph
// that serializes via WriteSnapshot (the checked ptrincr1 container) and
// warm-starts ResumeSession after a restart:
//
//	sess2, info, err := sess.Update(editedSources)  // byte-identical, warm
//	g, err := sess.Graph(ctx)                       // persistent form
//	err = g.WriteSnapshot(f)                        // survives a restart
//
// Warm answers are byte-identical to cold ones — fact sets, TotalFacts and
// the Figure-3 counters all match — and any edit the delta proof does not
// cover falls back to a cold solve, reported in ResumeInfo, never wrong.
//
// A Graph's identity is the captured Config: Strategy, ABI and the
// result-changing Options (ModelMainArgs, NoLibSummaries,
// CloneAllocWrappers, NoPtrArithSmear, NoMemoization, NoCycleElim) must all
// match for a resume; Timeout, Config.Parallelism, Options.Parallelism and
// DemandBudget are excluded because they never change an answer. Configs with Limits or FlagMisuse
// are not resumable at all (Config.Resumable reports this) and always solve
// cold.
//
// # Stability contract
//
// This package is the supported surface of the module. Everything under
// internal/ — the front end, the IR, the solver, the metrics harness — is
// implementation detail and may change without notice between commits;
// nothing outside this module can import it, and nothing inside the module's
// examples does. The façade itself follows these rules:
//
//   - The signatures of NewSession, Analyze, AnalyzeAll and the Session and
//     Report query methods are append-only: new methods and new Config
//     fields may appear, but existing ones keep their meaning.
//   - Session queries and Report queries agree: for any name, a Session's
//     demand-driven answer equals the exhaustive Report's answer, byte for
//     byte (pinned corpus-wide by the differential tests).
//   - Strategy values are stable identifiers; their String() forms
//     ("collapse-always", "collapse-on-cast", "common-initial-seq",
//     "offsets") match the paper's four instances and the CLI flags.
//   - Query results are deterministic: sets are returned sorted, and
//     repeated calls on one Report return equal values.
//   - Analysis semantics (which facts are derived) follow the paper; they
//     only change together with a documented baseline regeneration in
//     internal/regress.
//
// The package depends only on the standard library and the module's internal
// packages, so external consumers need nothing beyond this import path.
package pointsto
