// Command ptrdiff analyzes a program with two framework instances and
// reports where their points-to results differ — useful for understanding
// exactly what a precision/portability trade buys on a given program.
//
// Usage:
//
//	ptrdiff [-a algo1] [-b algo2] [-abi name] (file.c... | -corpus name)
//
// The report lists, per dereference site, the two set sizes when they
// differ, and summarizes the per-variable set differences. A -timeout or
// -max-steps bound that stops either analysis aborts the comparison (a
// diff of partial results would be misleading) with a diagnostic and a
// non-zero exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

func main() { os.Exit(cli.Run("ptrdiff", run)) }

func run() error {
	algoA := flag.String("a", "common-initial-seq", "first instance")
	algoB := flag.String("b", "offsets", "second instance")
	abi := flag.String("abi", "lp64", "ABI for the offsets instance")
	corpusName := flag.String("corpus", "", "analyze a built-in corpus program")
	var gov cli.Govern
	gov.RegisterFlags(flag.CommandLine)
	flag.Parse()

	theABI, err := cli.ParseABI(*abi)
	if err != nil {
		return cli.Usagef("%v", err)
	}

	var sources []frontend.Source
	if *corpusName != "" {
		src, err := corpus.Source(*corpusName)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		sources = src
	} else {
		if flag.NArg() == 0 {
			return cli.Usagef("no input (use -corpus or pass files)")
		}
		for _, path := range flag.Args() {
			text, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources = append(sources, frontend.Source{Name: path, Text: string(text)})
		}
	}

	res, err := frontend.Load(sources, frontend.Options{ABI: theABI})
	if err != nil {
		return err
	}

	sa := metrics.NewStrategy(*algoA, res.Layout)
	sb := metrics.NewStrategy(*algoB, res.Layout)
	if sa == nil || sb == nil {
		return cli.Usagef("unknown algorithm")
	}
	ctx, cancel := gov.Context()
	defer cancel()
	opts := core.Options{Limits: gov.Limits()}
	ra := core.AnalyzeContext(ctx, res.IR, sa, opts)
	rb := core.AnalyzeContext(ctx, res.IR, sb, opts)
	// A diff of partial results would report phantom differences, so an
	// incomplete run on either side aborts the comparison.
	if ra.Incomplete != nil {
		return cli.IncompleteError(os.Stderr, ra.Incomplete)
	}
	if rb.Incomplete != nil {
		return cli.IncompleteError(os.Stderr, rb.Incomplete)
	}

	fmt.Printf("comparing %s (A) vs %s (B)\n\n", *algoA, *algoB)

	// Per-site differences.
	diffs := 0
	for _, site := range res.IR.Sites {
		na, nb := ra.SiteSetSize(site), rb.SiteSetSize(site)
		if na != nb {
			if diffs == 0 {
				fmt.Println("dereference sites with different (expanded) set sizes:")
			}
			diffs++
			fmt.Printf("  %-20s *%-14s A=%d B=%d\n", site.Pos, site.Ptr.Name, na, nb)
		}
	}
	if diffs == 0 {
		fmt.Println("all dereference sites have identical set sizes")
	}
	fmt.Println()

	// Per-variable target-object differences (selector-insensitive, so
	// the two instances' different cell spaces compare meaningfully).
	type row struct {
		name         string
		onlyA, onlyB []string
	}
	var rows []row
	perVar := make(map[string]map[string][2]bool) // var -> target -> [inA, inB]
	collect := func(r *core.Result, idx int) {
		r.Facts(func(c core.Cell, targets []core.Cell) {
			if c.Obj.IsTemp() {
				return
			}
			name := c.Obj.Name
			m, ok := perVar[name]
			if !ok {
				m = make(map[string][2]bool)
				perVar[name] = m
			}
			for _, tc := range targets {
				v := m[tc.Obj.Name]
				v[idx] = true
				m[tc.Obj.Name] = v
			}
		})
	}
	collect(ra, 0)
	collect(rb, 1)
	for name, m := range perVar {
		var onlyA, onlyB []string
		for tgt, v := range m {
			if v[0] && !v[1] {
				onlyA = append(onlyA, tgt)
			}
			if v[1] && !v[0] {
				onlyB = append(onlyB, tgt)
			}
		}
		if len(onlyA)+len(onlyB) > 0 {
			sort.Strings(onlyA)
			sort.Strings(onlyB)
			rows = append(rows, row{name: name, onlyA: onlyA, onlyB: onlyB})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	if len(rows) == 0 {
		fmt.Println("no per-variable target differences")
		return nil
	}
	fmt.Println("per-variable target objects found by only one instance:")
	for _, r := range rows {
		fmt.Printf("  %s\n", r.name)
		if len(r.onlyA) > 0 {
			fmt.Printf("    only A: %v\n", r.onlyA)
		}
		if len(r.onlyB) > 0 {
			fmt.Printf("    only B: %v\n", r.onlyB)
		}
	}
	return nil
}
