package incr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/frontend"
)

const snapProgram = `
struct pair { int *a; int *b; };
int x, y;
struct pair p;
int *q;
void fill(struct pair *pp) { pp->a = &x; pp->b = &y; }
int main() { fill(&p); q = p.a; return 0; }
`

func solveSnapProgram(t testing.TB, cfg Config) *Graph {
	t.Helper()
	src := []frontend.Source{{Name: "snap.c", Text: snapProgram}}
	g, _, err := Solve(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func encodeGraph(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip: a decoded snapshot carries the same facts, unit
// fingerprints and config as the live graph, and resuming from it gives
// the same answer as resuming from the original.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, sname := range []string{"common-initial-seq", "offsets"} {
		g := solveSnapProgram(t, Config{Strategy: sname})
		got, err := ReadSnapshot(bytes.NewReader(encodeGraph(t, g)))
		if err != nil {
			t.Fatalf("%s: %v", sname, err)
		}
		if got.cfg != g.cfg {
			t.Fatalf("%s: config drifted: %+v vs %+v", sname, got.cfg, g.cfg)
		}
		if got.NumCells() != g.NumCells() || got.NumFacts() != g.NumFacts() {
			t.Fatalf("%s: state drifted: %d/%d cells, %d/%d facts",
				sname, got.NumCells(), g.NumCells(), got.NumFacts(), g.NumFacts())
		}
		if len(got.units) != len(g.units) {
			t.Fatalf("%s: unit count drifted", sname)
		}
		for name, enc := range g.units {
			if got.units[name] != enc {
				t.Fatalf("%s: unit %s fingerprints differently after decode", sname, name)
			}
		}
		// Facts must agree cell-for-cell in order.
		for i, c := range g.order {
			gc := got.order[i]
			if c.String() != gc.String() || len(g.facts[c]) != len(got.facts[gc]) {
				t.Fatalf("%s: cell %d drifted: %v vs %v", sname, i, c, gc)
			}
			for j := range g.facts[c] {
				if g.facts[c][j].String() != got.facts[gc][j].String() {
					t.Fatalf("%s: fact %v[%d] drifted", sname, c, j)
				}
			}
		}

		edited := strings.Replace(snapProgram, "q = p.a;", "q = p.b;", 1)
		newSrc := []frontend.Source{{Name: "snap.c", Text: edited}}
		cfg := g.cfg
		_, fromLive, liveStats, err := Resume(context.Background(), g, newSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, fromDisk, diskStats, err := Resume(context.Background(), got, newSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if liveStats.Outcome != "resumed" || diskStats.Outcome != "resumed" {
			t.Fatalf("%s: want both warm, got %q / %q", sname, liveStats.Outcome, diskStats.Outcome)
		}
		if a, b := fromLive.TotalFacts(), fromDisk.TotalFacts(); a != b {
			t.Fatalf("%s: live resume %d facts, disk resume %d", sname, a, b)
		}
	}
}

// TestSnapshotAdversarial mirrors store/crash_test.go: every corruption
// shape must come back as a *CorruptError — never a partial graph, never a
// panic.
func TestSnapshotAdversarial(t *testing.T) {
	g := solveSnapProgram(t, Config{})
	valid := encodeGraph(t, g)

	corruptions := map[string][]byte{
		"zero-length":    {},
		"no-newline":     []byte(snapMagic + " deadbeef 12"),
		"wrong-magic":    append([]byte("ptrsnapX "), valid[len(snapMagic)+1:]...),
		"short-header":   []byte(snapMagic + " abc\n"),
		"bad-digest":     []byte(snapMagic + " zz 4\nnull"),
		"bad-length":     []byte(snapMagic + " " + strings.Repeat("a", 64) + " -4\nnull"),
		"huge-length":    []byte(snapMagic + " " + strings.Repeat("a", 64) + " 2222222222225417\nnull"),
		"truncated":      valid[:len(valid)-7],
		"trailing-tail":  append(append([]byte{}, valid...), "extra"...),
		"not-a-snapshot": []byte("just some text\nmore text\n"),
	}
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x40
	corruptions["bit-flip"] = flipped

	// Checksum-valid payloads that are internally inconsistent.
	reframe := func(payload string) []byte {
		var buf bytes.Buffer
		writeChecked(t, &buf, []byte(payload))
		return buf.Bytes()
	}
	corruptions["wrong-version"] = reframe(`{"version":99,"config":{"strategy":"","abi":""},"sources":[],"objects":0,"cells":[],"facts":[]}`)
	corruptions["bad-source"] = reframe(`{"version":1,"config":{"strategy":"","abi":""},"sources":[{"name":"x.c","text":"int x = ;"}],"objects":0,"cells":[],"facts":[]}`)
	corruptions["bad-obj-index"] = reframe(`{"version":1,"config":{"strategy":"","abi":""},"sources":[{"name":"x.c","text":"int x;"}],"objects":1,"cells":[{"obj":99}],"facts":[]}`)
	corruptions["bad-field-path"] = reframe(`{"version":1,"config":{"strategy":"","abi":""},"sources":[{"name":"x.c","text":"int x;"}],"objects":1,"cells":[{"obj":0,"path":"nope"}],"facts":[]}`)
	corruptions["unknown-field"] = reframe(`{"version":1,"bogus":true,"config":{"strategy":"","abi":""},"sources":[],"objects":0,"cells":[],"facts":[]}`)

	for name, data := range corruptions {
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: decoded a corrupt snapshot (%d cells)", name, got.NumCells())
			continue
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want *CorruptError, got %T: %v", name, err, err)
		}
	}

	// The uncorrupted bytes still decode after all that.
	if _, err := ReadSnapshot(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

// TestSnapshotRejectsRemovedKnob: a snapshot written while the config still
// had the lookup/resolve memo switch carries "no_memoization", a field the
// decoder no longer knows. It must decode as corrupt, so a caller
// quarantines it and solves cold, and that cold solve reproduces the graph.
func TestSnapshotRejectsRemovedKnob(t *testing.T) {
	g := solveSnapProgram(t, Config{})
	valid := encodeGraph(t, g)
	payload := string(valid[bytes.IndexByte(valid, '\n')+1:])
	if !strings.Contains(payload, `"config":{`) {
		t.Fatalf("payload has no config object: %.80s", payload)
	}
	var old bytes.Buffer
	writeChecked(t, &old, []byte(strings.Replace(payload, `"config":{`, `"config":{"no_memoization":true,`, 1)))

	_, err := ReadSnapshot(bytes.NewReader(old.Bytes()))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %T: %v", err, err)
	}
	if cold := encodeGraph(t, solveSnapProgram(t, Config{})); !bytes.Equal(cold, valid) {
		t.Fatal("cold re-solve does not reproduce the snapshot")
	}
}

// writeChecked frames an arbitrary payload in a valid ptrincr1 header, for
// building checksum-valid but semantically broken snapshots.
func writeChecked(t testing.TB, buf *bytes.Buffer, payload []byte) {
	t.Helper()
	sum := sha256.Sum256(payload)
	fmt.Fprintf(buf, "%s %s %d\n", snapMagic, hex.EncodeToString(sum[:]), len(payload))
	buf.Write(payload)
}
