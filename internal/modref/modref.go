// Package modref computes MOD/REF side-effect summaries on top of a
// points-to result: for every function, the sets of abstract objects it may
// modify or reference through pointers, directly or via calls. This is the
// classic client the paper motivates better pointer analysis with (its
// related work discusses Ryder et al.'s modification side-effects problem,
// and §1 reports a slicing experiment hurt by collapsed structures) — the
// precision of these sets tracks the precision of the underlying instance.
package modref

import (
	"sort"

	"repro/internal/core"
	"repro/internal/ir"
)

// Effects is one function's side-effect summary.
type Effects struct {
	// Mod holds objects the function may write through pointers.
	Mod map[*ir.Object]bool
	// Ref holds objects the function may read through pointers.
	Ref map[*ir.Object]bool
}

func newEffects() *Effects {
	return &Effects{Mod: make(map[*ir.Object]bool), Ref: make(map[*ir.Object]bool)}
}

// Names returns the sorted object names of a set (testing/reporting aid).
func Names(set map[*ir.Object]bool) []string {
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o.Name)
	}
	sort.Strings(out)
	return out
}

// Summary maps every function to its transitive effects.
type Summary struct {
	Direct     map[*ir.Func]*Effects
	Transitive map[*ir.Func]*Effects
	// Callees is the computed call graph (call-site insensitive).
	Callees map[*ir.Func]map[*ir.Func]bool
}

// Compute derives MOD/REF summaries from a points-to analysis result.
func Compute(prog *ir.Program, res *core.Result) *Summary {
	s := &Summary{
		Direct:     make(map[*ir.Func]*Effects),
		Transitive: make(map[*ir.Func]*Effects),
		Callees:    make(map[*ir.Func]map[*ir.Func]bool),
	}
	for _, fn := range prog.Funcs {
		s.Direct[fn] = newEffects()
		s.Callees[fn] = make(map[*ir.Func]bool)
	}

	// Direct effects and the call graph.
	for _, st := range prog.Stmts {
		if st.Fn == nil {
			continue
		}
		eff := s.Direct[st.Fn]
		if eff == nil {
			continue
		}
		switch st.Op {
		case ir.OpStore:
			res.EachTarget(st.Ptr, func(c core.Cell) { eff.Mod[c.Obj] = true })
		case ir.OpLoad:
			res.EachTarget(st.Ptr, func(c core.Cell) { eff.Ref[c.Obj] = true })
		case ir.OpMemCopy:
			res.EachTarget(st.Ptr, func(c core.Cell) { eff.Mod[c.Obj] = true })
			res.EachTarget(st.Src, func(c core.Cell) { eff.Ref[c.Obj] = true })
		case ir.OpCall:
			res.EachTarget(st.Ptr, func(c core.Cell) {
				if callee := c.Obj.Fn; callee != nil {
					s.Callees[st.Fn][callee] = true
				}
			})
		}
	}

	// Transitive closure over the call graph (iterate to fixpoint; the
	// graph is small and possibly cyclic).
	for _, fn := range prog.Funcs {
		t := newEffects()
		for o := range s.Direct[fn].Mod {
			t.Mod[o] = true
		}
		for o := range s.Direct[fn].Ref {
			t.Ref[o] = true
		}
		s.Transitive[fn] = t
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			t := s.Transitive[fn]
			for callee := range s.Callees[fn] {
				ct := s.Transitive[callee]
				for o := range ct.Mod {
					if !t.Mod[o] {
						t.Mod[o] = true
						changed = true
					}
				}
				for o := range ct.Ref {
					if !t.Ref[o] {
						t.Ref[o] = true
						changed = true
					}
				}
			}
		}
	}
	return s
}

// AvgModSize returns the average transitive MOD-set size across functions
// with at least one effect — a precision proxy like the paper's Figure 4,
// one analysis phase downstream.
func (s *Summary) AvgModSize() float64 {
	n, total := 0, 0
	for _, e := range s.Transitive {
		if len(e.Mod) == 0 && len(e.Ref) == 0 {
			continue
		}
		n++
		total += len(e.Mod)
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
