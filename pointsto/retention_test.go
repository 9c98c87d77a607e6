package pointsto

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/cc/ast"
	"repro/internal/cc/sema"
	"repro/internal/frontend"
	"repro/internal/incr"
)

const retentionSrc = `
struct S { int *f; } s;
int a, b;
int *p, *q;
int main() {
	p = &a;
	s.f = p;
	q = s.f;
	return 0;
}
`

// watchFreed sets finalizers on res's sema program and first AST file. The
// returned function fails the test unless both are collected within a few
// GC cycles.
func watchFreed(t *testing.T, res *frontend.Result) func(what string) {
	t.Helper()
	freed := make(chan string, 2)
	runtime.SetFinalizer(res.Sema, func(*sema.Program) { freed <- "sema.Program" })
	runtime.SetFinalizer(res.Files[0], func(*ast.File) { freed <- "ast.File" })
	return func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for n := 0; n < 2; {
			runtime.GC()
			select {
			case <-freed:
				n++
			case <-time.After(10 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("%s: front end still reachable after GC", what)
				}
			}
		}
	}
}

// TestFrontEndNotRetained pins that the long-lived holders keep only the IR
// and the layout engine: once the front-end result is dropped, its AST and
// sema tables are collectable while a Report, a Session that answered a
// query, and incr Graphs from Capture and Resume are still reachable.
func TestFrontEndNotRetained(t *testing.T) {
	ctx := context.Background()
	src := []Source{{Name: "t.c", Text: retentionSrc}}
	cfg := Config{}

	res, err := load(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wait := watchFreed(t, res)
	sess := newSessionState(cfg, src, res)
	res = nil
	if _, err := sess.PointsTo(ctx, "q"); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sess.Graph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wait("session, report and captured graph")

	icfg, _ := incrConfig(cfg)
	edited := frontendSources([]Source{{Name: "t.c", Text: retentionSrc + "int *r = &b;\n"}})
	res, result, _, err := incr.Resume(ctx, g.g, edited, icfg)
	if err != nil {
		t.Fatal(err)
	}
	wait = watchFreed(t, res)
	g2, err := incr.Capture(edited, icfg, res.IR, res.Layout, result)
	if err != nil {
		t.Fatal(err)
	}
	res = nil
	wait("resumed graph")

	if got := rep.PointsTo("q"); len(got) != 1 || got[0] != "a" {
		t.Errorf("PointsTo(q) = %v, want [a]", got)
	}
	if g2.NumFacts() <= g.g.NumFacts() {
		t.Errorf("resumed graph has %d facts, captured %d; want more", g2.NumFacts(), g.g.NumFacts())
	}
	runtime.KeepAlive(sess)
}
