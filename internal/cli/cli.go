// Package cli holds the shared machinery of the command-line tools:
// ABI selection, input resolution (files vs. built-in corpus programs) and
// the text renderings of analysis results. Keeping it here makes the
// commands thin and the behavior testable.
package cli

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/modref"
)

// ParseABI maps an ABI flag value to a layout strategy.
func ParseABI(name string) (*layout.ABI, error) {
	switch name {
	case "lp64", "":
		return layout.LP64, nil
	case "ilp32":
		return layout.ILP32, nil
	case "packed1":
		return layout.Packed1, nil
	}
	return nil, fmt.Errorf("unknown ABI %q (want lp64, ilp32 or packed1)", name)
}

// ResolveInput turns a -corpus name or a list of file paths into sources.
func ResolveInput(corpusName string, paths []string) ([]frontend.Source, error) {
	if corpusName != "" {
		return corpus.Source(corpusName)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no input files (pass file.c or use -corpus <name>)")
	}
	var sources []frontend.Source
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sources = append(sources, frontend.Source{Name: path, Text: string(text)})
	}
	return sources, nil
}

// FormatSet formats display-ordered target names as "{a, b, c}".
func FormatSet(targets []string) string {
	return "{" + strings.Join(targets, ", ") + "}"
}

// PrintAll writes every named variable's points-to set, sorted.
func PrintAll(w io.Writer, result *core.Result) {
	for _, r := range result.Rows() {
		fmt.Fprintf(w, "%-24s -> %s\n", r.Cell, FormatSet(r.Targets))
	}
}

// PrintVar writes the points-to sets of all objects with the given source
// name; it returns false when no such variable exists.
func PrintVar(w io.Writer, result *core.Result, prog *ir.Program, name string) bool {
	found := false
	for _, o := range prog.Objects {
		if (o.Sym != nil && o.Sym.Name == name) || o.Name == name {
			found = true
			fmt.Fprintf(w, "%s -> %s\n", o.Name, FormatSet(result.Targets(o)))
		}
	}
	return found
}

// PrintSites writes per-dereference-site set sizes and the Figure 4 average.
func PrintSites(w io.Writer, result *core.Result, prog *ir.Program) {
	for _, s := range prog.Sites {
		fmt.Fprintf(w, "%-20s deref of %-16s set size %d\n",
			s.Pos, s.Ptr.Name, result.SiteSetSize(s))
	}
	fmt.Fprintf(w, "average: %.2f over %d sites\n", result.AvgDerefSetSize(), len(prog.Sites))
}

// PrintModRef writes transitive MOD/REF summaries for defined functions.
func PrintModRef(w io.Writer, result *core.Result, prog *ir.Program) {
	sum := modref.Compute(prog, result)
	for _, fn := range prog.Funcs {
		if !fn.Sym.Body {
			continue
		}
		eff := sum.Transitive[fn]
		fmt.Fprintf(w, "%s:\n", fn.Sym.Name)
		fmt.Fprintf(w, "  MOD: %v\n", modref.Names(eff.Mod))
		fmt.Fprintf(w, "  REF: %v\n", modref.Names(eff.Ref))
	}
}

// PrintCallGraph writes the points-to-derived call graph.
func PrintCallGraph(w io.Writer, result *core.Result, prog *ir.Program) {
	sum := modref.Compute(prog, result)
	for _, fn := range prog.Funcs {
		if !fn.Sym.Body {
			continue
		}
		var callees []string
		for c := range sum.Callees[fn] {
			callees = append(callees, c.Sym.Name)
		}
		sort.Strings(callees)
		fmt.Fprintf(w, "%-20s -> %v\n", fn.Sym.Name, callees)
	}
}

// WriteDot emits the points-to graph in Graphviz format.
func WriteDot(w io.Writer, result *core.Result) {
	fmt.Fprintln(w, "digraph pointsto {")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	var lines []string
	for _, r := range result.Rows() {
		for _, t := range r.Targets {
			lines = append(lines, fmt.Sprintf("  %q -> %q;", r.Cell, t))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w, "}")
}

// PrintMisuses writes the Unknown-mode misuse flags.
func PrintMisuses(w io.Writer, result *core.Result) {
	if len(result.Misuses) == 0 {
		fmt.Fprintln(w, "no potential pointer misuses flagged")
		return
	}
	for _, m := range result.Misuses {
		fmt.Fprintf(w, "%s: potential misuse: %s\n", m.Pos, m.Stmt)
	}
}
