package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the traced run. Spans of
// one op share its op id; Parent is the id of the enclosing span (-1 for an
// op's root span).
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Op         int     `json:"op"`
	Name       string  `json:"name"`
	Label      string  `json:"label,omitempty"`
	StartUS    float64 `json:"start_us"`
	EndUS      float64 `json:"end_us"`
	AllocBytes uint64  `json:"alloc_bytes"`

	alloc0 uint64
}

// tracer keeps one goroutine's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id. A nil tracer records nothing and
// returns -1.
func (t *tracer) begin(op, parent int, name, label string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Label: label, alloc0: heapAllocs()})
	t.spans[id].StartUS = t.now()
	return id
}

// end closes the span opened as id. Closing a closed span, or any span of
// a nil tracer, does nothing.
func (t *tracer) end(id int) {
	if t == nil || id < 0 || t.spans[id].EndUS != 0 {
		return
	}
	s := &t.spans[id]
	s.EndUS = t.now()
	s.AllocBytes = heapAllocs() - s.alloc0
}

// merge appends other's spans, renumbering their ids.
func (t *tracer) merge(other *tracer) {
	base := len(t.spans)
	for _, s := range other.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfMS returns every span's self time: its duration minus the time its
// child spans cover. Children of one span never overlap (each tracer is
// one goroutine's).
func (t *tracer) selfMS() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += (s.EndUS - s.StartUS) / 1e3
		if s.Parent >= 0 {
			self[s.Parent] -= (s.EndUS - s.StartUS) / 1e3
		}
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// table is a small markdown table for the traced run's breakdowns.
type table struct {
	title string
	head  []string
	rows  [][]string
}

func (tb *table) add(cells ...string) { tb.rows = append(tb.rows, cells) }

func (tb *table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n| %s |\n|", tb.title, strings.Join(tb.head, " | "))
	for range tb.head {
		b.WriteString(" --- |")
	}
	b.WriteString("\n")
	for _, r := range tb.rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(r, " | "))
	}
	return b.String()
}

// writeReport saves the spans and the breakdown tables of a traced run
// under dir and echoes the tables to the log.
func writeReport(o options, tr *tracer, tables []*table) error {
	stem := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := tr.write(stem + ".spans.jsonl"); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s (seed %d, %s run, GOMAXPROCS %d)\n\n", o.workload, o.seed, o.run, gomaxprocs)
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	fmt.Fprint(o.log, b.String())
	if err := os.WriteFile(stem+".layers.md", []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("write layer tables: %w", err)
	}
	return nil
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func itoa(x int) string   { return fmt.Sprintf("%d", x) }
