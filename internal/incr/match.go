package incr

import (
	"fmt"

	"repro/internal/cc/types"
	"repro/internal/ir"
)

// Object matching builds one global bijection between the old program's
// objects and the new program's:
//
//   - stable-named objects (file-scope variables and functions) pair by
//     unique symbol name, whatever units mention them;
//   - everything else pairs positionally through a lockstep walk of the
//     UNCHANGED units: parameter i to parameter i, the operand in slot k
//     of statement j to the same slot of the same statement. Encoding
//     equality guarantees the shapes line up; the walk only records which
//     concrete *ir.Object sits where.
//
// Objects owned by changed/removed/added units are simply left unbound —
// their cells cannot be carried over, which is exactly the conservatism the
// taint analysis needs. Any INCONSISTENCY (two old objects claiming one new
// object, a shape mismatch the encodings should have excluded) is an error,
// and Resume answers it with a cold-solve fallback rather than guessing.

type match struct {
	fwd map[*ir.Object]*ir.Object
	rev map[*ir.Object]*ir.Object
	// stmts pairs every statement of an unchanged unit with its twin in the
	// new program (the lockstep walk visits them 1:1). Resume uses it to
	// transplant per-statement artifacts — counter contributions and frozen
	// copy edges — from the captured solve onto the new IR.
	stmts map[*ir.Stmt]*ir.Stmt
	// nodes caches core.NodeMap per (old, new) object type, for mapCell.
	nodes map[[2]*types.Type][]int32
}

func newMatch() *match {
	return &match{
		fwd:   make(map[*ir.Object]*ir.Object),
		rev:   make(map[*ir.Object]*ir.Object),
		stmts: make(map[*ir.Stmt]*ir.Stmt),
		nodes: make(map[[2]*types.Type][]int32),
	}
}

// bind records old ↔ new, failing on any conflict with an earlier binding.
func (m *match) bind(old, new *ir.Object) error {
	if old == nil || new == nil {
		return fmt.Errorf("incr: nil object in pairing")
	}
	if old.Kind != new.Kind {
		return fmt.Errorf("incr: kind mismatch pairing %q (%v) with %q (%v)", old.Name, old.Kind, new.Name, new.Kind)
	}
	if prev, ok := m.fwd[old]; ok && prev != new {
		return fmt.Errorf("incr: object %q matched twice", old.Name)
	}
	if prev, ok := m.rev[new]; ok && prev != old {
		return fmt.Errorf("incr: new object %q claimed twice", new.Name)
	}
	m.fwd[old] = new
	m.rev[new] = old
	return nil
}

// bindOpt allows the both-nil case (absent retval, absent operand slot).
func (m *match) bindOpt(old, new *ir.Object) error {
	if old == nil && new == nil {
		return nil
	}
	return m.bind(old, new)
}

func (m *match) walkStmts(old, new []*ir.Stmt) error {
	if len(old) != len(new) {
		return fmt.Errorf("incr: statement count mismatch in matched unit (%d vs %d)", len(old), len(new))
	}
	for i := range old {
		o, n := old[i], new[i]
		if o.Op != n.Op || len(o.Args) != len(n.Args) {
			return fmt.Errorf("incr: statement shape mismatch in matched unit")
		}
		m.stmts[o] = n
		if err := m.bindOpt(o.Dst, n.Dst); err != nil {
			return err
		}
		if err := m.bindOpt(o.Src, n.Src); err != nil {
			return err
		}
		if err := m.bindOpt(o.Ptr, n.Ptr); err != nil {
			return err
		}
		for j := range o.Args {
			if err := m.bindOpt(o.Args[j], n.Args[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *match) walkFunc(old, new *ir.Func) error {
	if err := m.bindOpt(old.Obj, new.Obj); err != nil {
		return err
	}
	if len(old.Params) != len(new.Params) {
		return fmt.Errorf("incr: parameter count mismatch in matched unit %s", old.Sym.Unique)
	}
	for i := range old.Params {
		if err := m.bindOpt(old.Params[i], new.Params[i]); err != nil {
			return err
		}
	}
	if err := m.bindOpt(old.Retval, new.Retval); err != nil {
		return err
	}
	if err := m.bindOpt(old.Varargs, new.Varargs); err != nil {
		return err
	}
	return m.walkStmts(old.Stmts, new.Stmts)
}

func globalStmts(prog *ir.Program) []*ir.Stmt {
	var out []*ir.Stmt
	for _, st := range prog.Stmts {
		if st.Fn == nil {
			out = append(out, st)
		}
	}
	return out
}

// buildMatch computes the object bijection for the unchanged slice of the
// program pair described by d.
func buildMatch(oldProg, newProg *ir.Program, d Delta) (*match, error) {
	m := newMatch()

	newByUnique := make(map[string]*ir.Object)
	for _, o := range newProg.Objects {
		if stableNamed(o) {
			newByUnique[o.Sym.Unique] = o
		}
	}
	for _, o := range oldProg.Objects {
		if !stableNamed(o) {
			continue
		}
		n, ok := newByUnique[o.Sym.Unique]
		if !ok || n.Kind != o.Kind {
			continue // unbound: its cells are dropped at seeding time
		}
		if err := m.bind(o, n); err != nil {
			return nil, err
		}
	}

	dirty := d.dirty()
	for _, name := range d.Added {
		dirty[name] = true
	}
	newFuncs := make(map[string]*ir.Func, len(newProg.Funcs))
	for _, fn := range newProg.Funcs {
		newFuncs[fn.Sym.Unique] = fn
	}
	for _, fn := range oldProg.Funcs {
		if dirty[fn.Sym.Unique] {
			continue
		}
		nfn := newFuncs[fn.Sym.Unique]
		if nfn == nil {
			return nil, fmt.Errorf("incr: matched unit %s missing from new program", fn.Sym.Unique)
		}
		if err := m.walkFunc(fn, nfn); err != nil {
			return nil, err
		}
	}
	if !dirty[GlobalUnit] {
		if err := m.walkStmts(globalStmts(oldProg), globalStmts(newProg)); err != nil {
			return nil, err
		}
	}
	return m, nil
}
