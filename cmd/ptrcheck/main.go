// Command ptrcheck runs the pointer-analysis framework over C source files
// and reports points-to sets.
//
// Usage:
//
//	ptrcheck [flags] file.c...
//
// Flags:
//
//	-algo name     analysis instance: offsets, collapse-always,
//	               collapse-on-cast, common-initial-seq (default)
//	-abi name      layout for the offsets instance: lp64, ilp32, packed1
//	-var name      print only the points-to set of the named variable
//	-sites         print per-dereference-site points-to set sizes
//	-ir            dump the normalized IR instead of analyzing
//	-dot           emit the points-to graph in Graphviz dot format
//	-json          emit the result as JSON
//	-modref        print per-function MOD/REF side-effect summaries
//	-callgraph     print the points-to-derived call graph
//	-flag-misuse   flag dereferences of possibly corrupted pointers
//	-stats         print solver statistics
//	-corpus name   analyze a built-in corpus program instead of files
//	-timeout d     abort the analysis after duration d (exit 4)
//	-max-steps n   stop the solver after n worklist steps (exit 3)
//
// When a -timeout or -max-* bound stops the solver, ptrcheck still prints
// the partial (sound-but-incomplete) result, then a diagnostic, and exits
// non-zero per the cli exit-code taxonomy.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/castaudit"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/frontend"
	"repro/internal/metrics"
)

func main() { os.Exit(cli.Run("ptrcheck", run)) }

func run() error {
	algo := flag.String("algo", "common-initial-seq", "analysis instance")
	abi := flag.String("abi", "lp64", "ABI for the offsets instance (lp64, ilp32, packed1)")
	varName := flag.String("var", "", "print only this variable's points-to set")
	sites := flag.Bool("sites", false, "print per-dereference-site set sizes")
	dumpIR := flag.Bool("ir", false, "dump normalized IR and exit")
	dot := flag.Bool("dot", false, "emit Graphviz dot")
	stats := flag.Bool("stats", false, "print solver statistics")
	corpusName := flag.String("corpus", "", "analyze a built-in corpus program")
	modRef := flag.Bool("modref", false, "print per-function MOD/REF side-effect summaries")
	callGraph := flag.Bool("callgraph", false, "print the points-to-derived call graph")
	jsonOut := flag.Bool("json", false, "emit the result as JSON")
	flagMisuse := flag.Bool("flag-misuse", false, "flag dereferences of arithmetic-derived (possibly corrupted) pointers")
	auditCasts := flag.Bool("audit", false, "classify every cast by the paper's safety taxonomy and exit")
	var gov cli.Govern
	gov.RegisterFlags(flag.CommandLine)
	flag.Parse()

	theABI, err := cli.ParseABI(*abi)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	sources, err := cli.ResolveInput(*corpusName, flag.Args())
	if err != nil {
		return cli.Usagef("%v", err)
	}

	res, err := frontend.Load(sources, frontend.Options{ABI: theABI, ModelMainArgs: true})
	if err != nil {
		return err
	}
	for _, w := range res.IR.Warnings {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}

	if *dumpIR {
		fmt.Print(res.IR.Dump())
		return nil
	}
	if *auditCasts {
		findings := castaudit.Audit(res.Sema)
		for _, f := range findings {
			fmt.Println(f)
		}
		// Findings come sorted by class, so each class is one run: print
		// the counts in that order rather than in map order.
		sum := castaudit.Summary(findings)
		fmt.Printf("\n%d casts:", len(findings))
		for i, f := range findings {
			if i == 0 || f.Class != findings[i-1].Class {
				fmt.Printf(" %s=%d", f.Class, sum[f.Class])
			}
		}
		fmt.Println()
		return nil
	}

	strat := metrics.NewStrategy(*algo, res.Layout)
	if strat == nil {
		return cli.Usagef("unknown algorithm %q", *algo)
	}
	ctx, cancel := gov.Context()
	defer cancel()
	result := core.AnalyzeContext(ctx, res.IR, strat,
		core.Options{UseUnknown: *flagMisuse, Limits: gov.Limits()})

	if *flagMisuse {
		cli.PrintMisuses(os.Stdout, result)
		fmt.Println()
	}

	switch {
	case *jsonOut:
		if err := export.WriteResult(os.Stdout, result, res.IR, true); err != nil {
			return err
		}
	case *dot:
		cli.WriteDot(os.Stdout, result)
	case *modRef:
		cli.PrintModRef(os.Stdout, result, res.IR)
	case *callGraph:
		cli.PrintCallGraph(os.Stdout, result, res.IR)
	case *varName != "":
		if !cli.PrintVar(os.Stdout, result, res.IR, *varName) {
			return fmt.Errorf("no variable named %q", *varName)
		}
	case *sites:
		cli.PrintSites(os.Stdout, result, res.IR)
	default:
		cli.PrintAll(os.Stdout, result)
	}

	if *stats {
		rec := strat.Recorder()
		fmt.Printf("\n%d objects, %d statements, %d deref sites\n",
			len(res.IR.Objects), res.IR.NumStmts(), len(res.IR.Sites))
		fmt.Printf("facts: %d   time: %v\n", result.TotalFacts(), result.Duration)
		fmt.Printf("lookup calls: %d (%d struct, %d mismatch)\n",
			rec.LookupCalls, rec.LookupStructs, rec.LookupMismatches)
		fmt.Printf("resolve calls: %d (%d struct, %d mismatch)\n",
			rec.ResolveCalls, rec.ResolveStructs, rec.ResolveMismatches)
		fmt.Printf("avg deref set size: %.2f\n", result.AvgDerefSetSize())
	}

	if result.Incomplete != nil {
		return cli.IncompleteError(os.Stderr, result.Incomplete)
	}
	return nil
}
