// Package castaudit classifies every pointer/structure cast in a program
// using the paper's taxonomy: which casts are harmless, which are protected
// by the ISO common-initial-sequence guarantee (what the CIS instance
// exploits), which rely on the first-field rule (what normalize exploits),
// and which have no portable structure at all (what forces the analyses to
// smear). It turns the paper's analysis-internal distinctions into a
// reviewable report for programmers.
package castaudit

import (
	"fmt"
	"sort"

	"repro/internal/cc/ast"
	"repro/internal/cc/sema"
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// Class is the safety classification of one cast.
type Class int

// Cast classifications, from most to least benign.
const (
	// Benign: identical or qualifier-only difference.
	Benign Class = iota
	// Generic: a conversion to or from void*/char* — resolved at the
	// eventual dereference, idiomatic C.
	Generic
	// PrefixSafe: pointee records where one's fields are a complete
	// initial sequence of the other's (the "inheritance" idiom); all
	// header accesses are covered by ISO's CIS guarantee.
	PrefixSafe
	// PartialOverlap: pointee records share a non-empty common initial
	// sequence but diverge after it; accesses past the shared prefix
	// are implementation-defined (the analyses smear them).
	PartialOverlap
	// FirstFieldOnly: the target type matches (only) the source's
	// innermost first field, or vice versa — safe per the offset-zero
	// rule but nothing beyond the first field is guaranteed.
	FirstFieldOnly
	// Unrelated: record types with no common initial sequence; every
	// field access through the cast pointer is unportable.
	Unrelated
	// IntLaunder: a pointer travels through an integer type.
	IntLaunder
)

func (c Class) String() string {
	switch c {
	case Benign:
		return "benign"
	case Generic:
		return "generic"
	case PrefixSafe:
		return "prefix-safe"
	case PartialOverlap:
		return "partial-overlap"
	case FirstFieldOnly:
		return "first-field-only"
	case Unrelated:
		return "unrelated"
	case IntLaunder:
		return "int-launder"
	}
	return "?"
}

// Finding is one classified cast.
type Finding struct {
	Pos    token.Pos
	From   string // source expression type
	To     string // cast target type
	Class  Class
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] (%s) applied to %s%s", f.Pos, f.Class, f.To, f.From, f.Detail)
}

// Audit classifies every explicit cast in the program.
func Audit(prog *sema.Program) []Finding {
	var out []Finding
	for _, file := range prog.Files {
		ast.Walk(file, func(n ast.Node) bool {
			c, ok := n.(*ast.Cast)
			if !ok {
				return true
			}
			from := c.X.ExprType()
			if from == nil {
				return true
			}
			f := classify(from.Decay(), c.T)
			if f == nil {
				return true
			}
			f.Pos = c.Pos()
			out = append(out, *f)
			return true
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Class > out[j].Class })
	return out
}

// classify decides the class of a (source type, target type) cast pair,
// returning nil for casts that carry no pointer significance at all
// (e.g. int-to-double).
func classify(from, to *types.Type) *Finding {
	f := &Finding{From: from.String(), To: to.String()}

	fromPtr, toPtr := from.Kind == types.Ptr, to.Kind == types.Ptr
	switch {
	case !fromPtr && !toPtr:
		return nil // arithmetic conversion; no pointer content
	case fromPtr && !toPtr:
		if to.IsInteger() {
			f.Class = IntLaunder
			f.Detail = " (pointer stored in an integer)"
			return f
		}
		f.Class = Unrelated
		return f
	case !fromPtr && toPtr:
		if from.IsInteger() {
			f.Class = IntLaunder
			f.Detail = " (pointer recovered from an integer)"
			return f
		}
		f.Class = Unrelated
		return f
	}

	fp, tp := from.Elem, to.Elem
	if types.CompatibleLax(fp, tp) {
		f.Class = Benign
		return f
	}
	if fp.IsVoid() || tp.IsVoid() || isCharType(fp) || isCharType(tp) {
		f.Class = Generic
		return f
	}
	if fp.Kind == types.Struct && tp.Kind == types.Struct &&
		fp.Record.Complete && tp.Record.Complete {
		pairs := types.CommonInitialSequence(fp.Record, tp.Record)
		short := len(fp.Record.Fields)
		if len(tp.Record.Fields) < short {
			short = len(tp.Record.Fields)
		}
		switch {
		case len(pairs) == short:
			f.Class = PrefixSafe
			f.Detail = fmt.Sprintf(" (shared header of %d fields)", len(pairs))
		case len(pairs) > 0:
			f.Class = PartialOverlap
			f.Detail = fmt.Sprintf(" (common initial sequence ends after %d fields)", len(pairs))
		case firstFieldMatches(fp, tp) || firstFieldMatches(tp, fp):
			f.Class = FirstFieldOnly
		default:
			f.Class = Unrelated
		}
		return f
	}
	// Record vs scalar pointee (or enum/union mixes): the first-field
	// rule may still apply.
	if firstFieldMatches(fp, tp) || firstFieldMatches(tp, fp) {
		f.Class = FirstFieldOnly
		return f
	}
	f.Class = Unrelated
	return f
}

// firstFieldMatches reports whether descending through rec's innermost
// first fields reaches a type lax-compatible with t (the offset-zero rule).
func firstFieldMatches(rec, t *types.Type) bool {
	cur := rec
	for depth := 0; depth < 32; depth++ {
		if cur == nil {
			return false
		}
		for cur.Kind == types.Array {
			cur = cur.Elem
		}
		if types.CompatibleLax(cur, t) {
			return true
		}
		if cur.Kind != types.Struct || !cur.Record.Complete || len(cur.Record.Fields) == 0 {
			return false
		}
		cur = cur.Record.Fields[0].Type
	}
	return false
}

func isCharType(t *types.Type) bool {
	switch t.Kind {
	case types.Char, types.SChar, types.UChar:
		return true
	}
	return false
}

// Summary tallies findings per class.
func Summary(findings []Finding) map[Class]int {
	out := make(map[Class]int)
	for _, f := range findings {
		out[f.Class]++
	}
	return out
}
