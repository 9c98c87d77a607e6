package core

import (
	"context"
	"time"

	"repro/internal/ir"
)

// AnalyzeMapInterned is AnalyzeWith with the solver's slot-indexed cell
// table swapped for a map-only one (NewCellTable): the reference interner
// the slot table must agree with id for id.
func AnalyzeMapInterned(prog *ir.Program, strat Strategy, opts Options) *Result {
	s := newSolver(context.Background(), prog, strat, opts)
	s.table = NewCellTable()
	start := time.Now()
	s.run()
	return s.finish(start)
}

// InternedCells returns a result's cells in CellID order.
func InternedCells(r *Result) []Cell { return r.table.cells }
