package core

// The string-path reference for the leaf tables of flatten.go: the
// type-flattening functions the field-based strategies ran on before cells
// carried leaf-table node indexes, kept verbatim (modulo names) so that
// TestLeafTableMatchesPathWalk can check the tables node for node.

import (
	"strings"

	"repro/internal/cc/types"
	"repro/internal/ir"
)

// leafPaths returns the normalized cell paths of type t, in layout order.
func leafPaths(t *types.Type) []ir.Path {
	var out []ir.Path
	appendLeaves(t, nil, &out, 0)
	if len(out) == 0 {
		out = append(out, nil)
	}
	return out
}

func appendLeaves(t *types.Type, prefix ir.Path, out *[]ir.Path, depth int) {
	if t == nil || depth > maxDepth {
		*out = append(*out, prefix)
		return
	}
	switch t.Kind {
	case types.Array:
		appendLeaves(t.Elem, prefix, out, depth+1)
	case types.Struct:
		if !t.Record.Complete || len(t.Record.Fields) == 0 {
			*out = append(*out, prefix)
			return
		}
		for i := range t.Record.Fields {
			f := &t.Record.Fields[i]
			if f.Name == "" {
				continue // unnamed bit-field padding
			}
			appendLeaves(f.Type, prefix.Extend(f.Name), out, depth+1)
		}
	case types.Union:
		*out = append(*out, prefix) // collapsed
	default:
		*out = append(*out, prefix)
	}
}

// typeAt walks a field path from t and returns the type it names (nil when
// the path does not fit the type).
func typeAt(t *types.Type, path ir.Path) *types.Type {
	cur := t
	for _, name := range path {
		if cur == nil {
			return nil
		}
		for cur.Kind == types.Array {
			cur = cur.Elem
		}
		if !cur.IsRecord() {
			return nil
		}
		i := cur.Record.FieldIndex(name)
		if i < 0 {
			return nil
		}
		cur = cur.Record.Fields[i].Type
	}
	return cur
}

// normalizePath maps a source-level field path on an object of type t to its
// normalized cell path: the path is truncated at the first union, and then
// extended through first fields until it names a non-aggregate.
func normalizePath(t *types.Type, path ir.Path) ir.Path {
	cur := t
	var out ir.Path
	for _, name := range path {
		if cur == nil {
			return out
		}
		for cur.Kind == types.Array {
			cur = cur.Elem
		}
		if cur.Kind == types.Union {
			return out // collapse: the union cell
		}
		if !cur.IsRecord() {
			return out
		}
		i := cur.Record.FieldIndex(name)
		if i < 0 {
			return out
		}
		out = out.Extend(name)
		cur = cur.Record.Fields[i].Type
	}
	return descendFirstFieldPath(cur, out)
}

// descendFirstFieldPath extends base through innermost first fields while
// the current type is a struct (stopping at unions and scalars).
func descendFirstFieldPath(t *types.Type, base ir.Path) ir.Path {
	cur := t
	for depth := 0; depth < maxDepth; depth++ {
		if cur == nil {
			return base
		}
		for cur.Kind == types.Array {
			cur = cur.Elem
		}
		if cur == nil || cur.Kind != types.Struct || !cur.Record.Complete || len(cur.Record.Fields) == 0 {
			return base
		}
		f := &cur.Record.Fields[0]
		if f.Name == "" {
			return base
		}
		base = base.Extend(f.Name)
		cur = f.Type
	}
	return base
}

// pathEq compares two field paths.
func pathEq(a, b ir.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pathCandidate is one enclosing-structure candidate δ in path form.
type pathCandidate struct {
	path ir.Path
	typ  *types.Type
}

// candidatesFor returns the candidates δ with normalize(t.δ) == normPath,
// innermost (longest δ) first.
func candidatesFor(t *types.Type, normPath ir.Path) []pathCandidate {
	var out []pathCandidate
	for n := len(normPath); n >= 0; n-- {
		prefix := normPath[:n]
		pt := typeAt(t, prefix)
		if pt == nil {
			continue
		}
		for pt.Kind == types.Array {
			pt = pt.Elem
		}
		if pathEq(normalizePath(t, prefix), normPath) {
			out = append(out, pathCandidate{path: append(ir.Path{}, prefix...), typ: pt})
		} else if n < len(normPath) {
			break
		}
	}
	return out
}

// followingLeaves returns the normalized leaf paths of t at or after
// normPath in layout order; the full leaf list when normPath is not a leaf.
func followingLeaves(t *types.Type, normPath ir.Path) []ir.Path {
	leaves := leafPaths(t)
	for i, l := range leaves {
		if pathEq(l, normPath) {
			return leaves[i:]
		}
	}
	return leaves
}

// leavesAfterPrefix is the reference for CIS.smearAfter: the leaves strictly
// after the run of leaves under prefix (nil when none follow or none lie
// under it).
func leavesAfterPrefix(t *types.Type, prefix ir.Path) []ir.Path {
	var out []ir.Path
	past := false
	for _, l := range leafPaths(t) {
		if len(l) >= len(prefix) && pathEq(l[:len(prefix)], prefix) {
			past = true
			continue
		}
		if past {
			out = append(out, l)
		}
	}
	return out
}

// joinPath renders a field path in the dotted form of Cell.Path.
func joinPath(p ir.Path) string { return strings.Join(p, ".") }
