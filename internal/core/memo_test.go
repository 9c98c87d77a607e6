package core_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// memoWorkload exercises every memoizable path: struct copies (resolve with
// known extent), memcopies through void* (resolve with unknown extent), and
// repeated field accesses under casts (lookup hits and mismatches).
const memoWorkload = `
struct A { int *a1; char pad; int *a2; } a, a2;
struct B { char *b1; int *b2; } b;
struct Hdr { int kind; int *payload; };
struct Ext { int kind; int *payload; int *extra; } e1, e2;
int x, y, z, *p, *q, *r;

void copies(void) {
	a.a1 = &x;
	a.a2 = &y;
	a2 = a;
	a = *(struct A *)&b;
	p = a.a1;
	q = a2.a2;
}

void headers(void) {
	struct Hdr *h;
	e1.payload = &z;
	h = (struct Hdr *)&e1;
	r = h->payload;
	e2 = e1;
	h = (struct Hdr *)&e2;
	r = h->payload;
}
`

// factDump renders the full points-to graph as sorted "cell -> target" lines.
func factDump(res *core.Result) []string {
	var out []string
	for _, c := range res.SortedCells() {
		for _, t := range res.PointsToCell(c).Sorted() {
			out = append(out, c.String()+" -> "+t.String())
		}
	}
	sort.Strings(out)
	return out
}

// TestMemoizationPreservesResults runs every strategy with the caches on and
// off and demands identical facts AND identical instrumentation counts —
// the memo layer must be invisible except for the hit/miss counters.
func TestMemoizationPreservesResults(t *testing.T) {
	res := loadIR(t, memoWorkload, nil)
	for name := range strategies(res.Layout) {
		t.Run(name, func(t *testing.T) {
			on := strategies(res.Layout)[name]
			off := strategies(res.Layout)[name]
			core.SetMemoization(off, false)

			rOn := core.Analyze(res.IR, on)
			rOff := core.Analyze(res.IR, off)

			if got, want := rOn.TotalFacts(), rOff.TotalFacts(); got != want {
				t.Errorf("TotalFacts: memo on %d, off %d", got, want)
			}
			if got, want := rOn.AvgDerefSetSize(), rOff.AvgDerefSetSize(); got != want {
				t.Errorf("AvgDerefSetSize: memo on %v, off %v", got, want)
			}
			fOn, fOff := factDump(rOn), factDump(rOff)
			if strings.Join(fOn, "\n") != strings.Join(fOff, "\n") {
				t.Errorf("fact graphs differ:\nmemo on:\n%s\nmemo off:\n%s",
					strings.Join(fOn, "\n"), strings.Join(fOff, "\n"))
			}

			recOn, recOff := on.Recorder(), off.Recorder()
			if recOn.LookupCalls != recOff.LookupCalls {
				t.Errorf("LookupCalls: memo on %d, off %d (cache hits must still count as logical calls)",
					recOn.LookupCalls, recOff.LookupCalls)
			}
			if recOn.ResolveCalls != recOff.ResolveCalls {
				t.Errorf("ResolveCalls: memo on %d, off %d",
					recOn.ResolveCalls, recOff.ResolveCalls)
			}
			if recOn.LookupMismatches != recOff.LookupMismatches {
				t.Errorf("LookupMismatches: memo on %d, off %d (hits must replay the cached flag)",
					recOn.LookupMismatches, recOff.LookupMismatches)
			}
			if recOn.ResolveMismatches != recOff.ResolveMismatches {
				t.Errorf("ResolveMismatches: memo on %d, off %d",
					recOn.ResolveMismatches, recOff.ResolveMismatches)
			}
			if recOff.LookupCacheHits != 0 || recOff.ResolveCacheHits != 0 {
				t.Errorf("memo off recorded cache hits: lookup %d resolve %d",
					recOff.LookupCacheHits, recOff.ResolveCacheHits)
			}
		})
	}
}

// TestMemoizationCountersConsistent checks the counter invariant of the
// memoizing instances (the field-based ones): every logical lookup call is
// either a cache hit or a cache miss. Collapse Always and Offsets keep no
// memo — their lookup and resolve are O(1) — and record no cache traffic.
func TestMemoizationCountersConsistent(t *testing.T) {
	res := loadIR(t, memoWorkload, nil)
	for name, strat := range strategies(res.Layout) {
		core.Analyze(res.IR, strat)
		rec := strat.Recorder()
		if _, ok := strat.(core.Memoizer); !ok {
			if rec.LookupCacheHits+rec.LookupCacheMisses+rec.ResolveCacheHits+rec.ResolveCacheMisses != 0 {
				t.Errorf("%s: no memo, but cache counters %+v", name, *rec)
			}
			continue
		}
		if rec.LookupCacheHits+rec.LookupCacheMisses != rec.LookupCalls {
			t.Errorf("%s: lookup hits %d + misses %d != calls %d",
				name, rec.LookupCacheHits, rec.LookupCacheMisses, rec.LookupCalls)
		}
		if rec.LookupCacheHits == 0 {
			t.Errorf("%s: workload produced no lookup cache hits", name)
		}
		if rec.ResolveCacheHits+rec.ResolveCacheMisses < rec.ResolveCalls {
			// CIS/CoC cache but do not record τ == nil (unknown-extent)
			// resolves, so hits+misses may exceed calls — never undercount.
			t.Errorf("%s: resolve hits %d + misses %d < calls %d",
				name, rec.ResolveCacheHits, rec.ResolveCacheMisses, rec.ResolveCalls)
		}
	}
}
