package types

// This file implements ISO C type compatibility and the common initial
// sequence relation.
//
// The paper's footnote 1 summarizes the rules we need:
//   - compatible types allow similar-but-not-identical declarations (e.g.
//     across translation units) to match;
//   - an int is compatible with an enum;
//   - qualifiers must match exactly;
//   - two pointers are compatible only if their pointees are compatible.

// CompatibleLax reports whether a and b are compatible C types when all
// qualifiers (at every depth) are ignored. The pointer analysis uses this
// for its lookup/resolve type-match tests: adding or dropping const/volatile
// is an implicit conversion, not a cast, and must not count as a type
// mismatch (a `const char *` parameter receiving a `char *` argument is not
// "casting").
func CompatibleLax(a, b *Type) bool {
	var inProgress map[[2]int]bool
	return compatible(stripQuals(a, 0), stripQuals(b, 0), &inProgress)
}

func stripQuals(t *Type, depth int) *Type {
	if t == nil || depth > 32 {
		return t
	}
	switch t.Kind {
	case Ptr:
		inner := stripQuals(t.Elem, depth+1)
		if inner == t.Elem && t.Qual == 0 {
			return t
		}
		return &Type{Kind: Ptr, Elem: inner}
	case Array:
		inner := stripQuals(t.Elem, depth+1)
		if inner == t.Elem && t.Qual == 0 {
			return t
		}
		return &Type{Kind: Array, Elem: inner, ArrayLen: t.ArrayLen}
	default:
		return Unqualified(t)
	}
}

// Compatible reports whether a and b are compatible C types.
//
// Struct/union compatibility follows ISO C for separate translation units:
// identical *Record values are trivially compatible; distinct records are
// compatible when both are complete, have the same tag, the same number of
// members with the same names in the same order, pairwise-compatible member
// types, and equal bit-field widths. Recursive types are handled with an
// in-progress set of record-ID pairs (coinductive reading of the standard's
// rule), made when the first pair of distinct complete records is reached.
func Compatible(a, b *Type) bool {
	var inProgress map[[2]int]bool
	return compatible(a, b, &inProgress)
}

func compatible(a, b *Type, inProgress *map[[2]int]bool) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Qual != b.Qual {
		return false
	}
	ka, kb := a.Kind, b.Kind
	// Enum ↔ int compatibility (implementation choice documented by the
	// paper: "an int is compatible with an enum").
	if ka == Enum && kb == Int || ka == Int && kb == Enum {
		return true
	}
	// Bool is an analysis-internal alias of int.
	if ka == Bool {
		ka = Int
	}
	if kb == Bool {
		kb = Int
	}
	if ka != kb {
		return false
	}
	switch ka {
	case Ptr:
		return compatible(a.Elem, b.Elem, inProgress)
	case Array:
		if a.ArrayLen >= 0 && b.ArrayLen >= 0 && a.ArrayLen != b.ArrayLen {
			return false
		}
		return compatible(a.Elem, b.Elem, inProgress)
	case Struct, Union:
		return recordsCompatible(a.Record, b.Record, inProgress)
	case Enum:
		// Two enums: compatible regardless of tag (both are int-like).
		return true
	case Func:
		return signaturesCompatible(a.Sig, b.Sig, inProgress)
	default:
		return true // same basic kind, same qualifiers
	}
}

func recordsCompatible(a, b *Record, inProgress *map[[2]int]bool) bool {
	if a == b {
		return true
	}
	if a.Union != b.Union {
		return false
	}
	if a.Tag != b.Tag {
		return false
	}
	if !a.Complete || !b.Complete {
		// An incomplete record is compatible with any same-tag record;
		// this is what makes forward declarations usable.
		return true
	}
	key := [2]int{a.ID, b.ID}
	if a.ID > b.ID {
		key = [2]int{b.ID, a.ID}
	}
	if (*inProgress)[key] {
		return true // coinductive: assume compatible while checking
	}
	if *inProgress == nil {
		*inProgress = make(map[[2]int]bool)
	}
	(*inProgress)[key] = true
	defer delete(*inProgress, key)

	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		fa, fb := &a.Fields[i], &b.Fields[i]
		if fa.Name != fb.Name {
			return false
		}
		if fa.BitWidth != fb.BitWidth {
			return false
		}
		if !compatible(fa.Type, fb.Type, inProgress) {
			return false
		}
	}
	return true
}

func signaturesCompatible(a, b *Signature, inProgress *map[[2]int]bool) bool {
	if !compatible(a.Result, b.Result, inProgress) {
		return false
	}
	if a.OldStyle || b.OldStyle {
		return true // unspecified parameters are compatible with anything
	}
	if a.Variadic != b.Variadic || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if !compatible(Unqualified(a.Params[i].Type), Unqualified(b.Params[i].Type), inProgress) {
			return false
		}
	}
	return true
}

// FieldPair is a pair of corresponding fields in a common initial sequence.
type FieldPair struct {
	A, B int // field indices in the respective records
}

// CommonInitialSequence returns the longest initial sequence of fields of a
// and b with pairwise compatible types (and, for bit-fields, equal widths),
// per ISO C 6.5.2.3 (C90 6.3.2.3). The result is empty when the first fields
// already fail to correspond.
func CommonInitialSequence(a, b *Record) []FieldPair {
	var pairs []FieldPair
	n := len(a.Fields)
	if len(b.Fields) < n {
		n = len(b.Fields)
	}
	for i := 0; i < n; i++ {
		fa, fb := &a.Fields[i], &b.Fields[i]
		if fa.BitWidth != fb.BitWidth {
			break
		}
		if !Compatible(fa.Type, fb.Type) {
			break
		}
		pairs = append(pairs, FieldPair{A: i, B: i})
	}
	return pairs
}

// Composite returns the composite of two compatible types (used when merging
// redeclarations): array lengths and prototype information are taken from
// whichever declaration supplies them.
func Composite(a, b *Type) *Type {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	switch {
	case a.Kind == Array && b.Kind == Array:
		n := a.ArrayLen
		if n < 0 {
			n = b.ArrayLen
		}
		return ArrayOf(Composite(a.Elem, b.Elem), n)
	case a.Kind == Ptr && b.Kind == Ptr:
		return PointerTo(Composite(a.Elem, b.Elem))
	case a.Kind == Func && b.Kind == Func:
		if a.Sig.OldStyle {
			return b
		}
		return a
	case a.Kind == Struct || a.Kind == Union:
		if a.Record.Complete {
			return a
		}
		return b
	default:
		return a
	}
}
