// Package steens implements a Steensgaard-style unification-based points-to
// analysis over the same normalized IR the framework consumes. The paper's
// related-work section positions Steensgaard's algorithm as the other
// portable approach: it keeps running time near-linear by unifying the
// points-to sets of everything an assignment relates, at a (sometimes
// large) precision cost. This implementation is the classic object-level
// variant (structures collapsed), so comparing it against the framework's
// instances quantifies exactly the trade the paper describes.
package steens

import (
	"time"

	"repro/internal/ir"
)

// ecr is an equivalence-class representative in the union-find forest.
type ecr struct {
	parent *ecr
	rank   int

	// pts is the class every member of this class points to (nil = ⊥).
	pts *ecr

	// members are the program objects in this class (root only).
	members []*ir.Object
	// funcs are the function objects in this class (root only).
	funcs []*ir.Func
	// calls are call sites whose callee points into this class (root
	// only); kept so later-unified functions still bind.
	calls []*call
}

type call struct {
	args   []*ecr
	result *ecr
	bound  map[*ir.Func]bool
}

func (e *ecr) find() *ecr {
	root := e
	for root.parent != nil {
		root = root.parent
	}
	for e.parent != nil {
		next := e.parent
		e.parent = root
		e = next
	}
	return root
}

// Result holds the classes computed by Analyze.
type Result struct {
	Program  *ir.Program
	Duration time.Duration

	objECR map[*ir.Object]*ecr
}

// PointsTo returns the objects the given object's class may point to.
func (r *Result) PointsTo(obj *ir.Object) []*ir.Object {
	e, ok := r.objECR[obj]
	if !ok {
		return nil
	}
	p := e.find().pts
	if p == nil {
		return nil
	}
	return p.find().members
}

// ClassSize returns the size of the points-to class of obj (0 if ⊥).
func (r *Result) ClassSize(obj *ir.Object) int {
	return len(r.PointsTo(obj))
}

// AvgDerefSetSize mirrors core.Result.AvgDerefSetSize: the average number
// of objects (expanded per-field) a dereferenced pointer may reference.
func (r *Result) AvgDerefSetSize(expand func(*ir.Object) int) float64 {
	if len(r.Program.Sites) == 0 {
		return 0
	}
	total := 0
	for _, s := range r.Program.Sites {
		for _, o := range r.PointsTo(s.Ptr) {
			total += expand(o)
		}
	}
	return float64(total) / float64(len(r.Program.Sites))
}

// TotalFacts counts one fact per (object, pointee-class member), the
// closest analogue of the framework's edge count.
func (r *Result) TotalFacts() int {
	n := 0
	seen := make(map[*ecr]bool)
	for _, e := range r.objECR {
		root := e.find()
		if seen[root] {
			continue
		}
		seen[root] = true
		if root.pts != nil {
			n += len(root.members) * len(root.pts.find().members)
		}
	}
	return n
}

// solver carries the unification state.
type solver struct {
	objECR map[*ir.Object]*ecr
}

// Analyze runs the unification analysis to completion.
func Analyze(prog *ir.Program) *Result {
	start := time.Now()
	s := &solver{objECR: make(map[*ir.Object]*ecr)}
	for _, st := range prog.Stmts {
		s.stmt(st)
	}
	return &Result{
		Program:  prog,
		Duration: time.Since(start),
		objECR:   s.objECR,
	}
}

// of returns (creating if needed) the ECR of an object.
func (s *solver) of(obj *ir.Object) *ecr {
	if e, ok := s.objECR[obj]; ok {
		return e.find()
	}
	e := &ecr{}
	e.members = []*ir.Object{obj}
	s.objECR[obj] = e
	if obj.Fn != nil {
		e.funcs = []*ir.Func{obj.Fn}
	}
	return e
}

// ptsOf returns the points-to class of e, creating a fresh ⊥ class when
// absent (the eager variant of Steensgaard's conditional join).
func (s *solver) ptsOf(e *ecr) *ecr {
	e = e.find()
	if e.pts == nil {
		e.pts = &ecr{}
	}
	return e.pts.find()
}

// union merges two classes and reconciles their points-to links, function
// lists and pending call sites.
func (s *solver) union(a, b *ecr) *ecr {
	a, b = a.find(), b.find()
	if a == b {
		return a
	}
	if a.rank < b.rank {
		a, b = b, a
	}
	if a.rank == b.rank {
		a.rank++
	}
	b.parent = a

	oldFuncs := a.funcs
	oldCalls := a.calls
	newFuncs := b.funcs
	newCalls := b.calls

	a.members = append(a.members, b.members...)
	a.funcs = append(a.funcs, b.funcs...)
	a.calls = append(a.calls, b.calls...)
	b.members, b.funcs, b.calls = nil, nil, nil

	// Reconcile points-to links. The recursive union below may move a
	// under another root (cyclic classes), so re-find before writing.
	ap, bp := a.pts, b.pts
	a.pts, b.pts = nil, nil
	var merged *ecr
	switch {
	case ap == nil:
		merged = bp
	case bp == nil:
		merged = ap
	default:
		merged = s.union(ap, bp)
	}
	root := a.find()
	if root.pts == nil {
		root.pts = merged
	} else if merged != nil {
		s.union(root.pts, merged)
	}

	// Bind newly colocated (function, call site) pairs, both ways.
	for _, c := range oldCalls {
		for _, fn := range newFuncs {
			s.bind(c, fn)
		}
	}
	for _, c := range newCalls {
		for _, fn := range oldFuncs {
			s.bind(c, fn)
		}
		for _, fn := range newFuncs {
			s.bind(c, fn)
		}
	}
	return a.find()
}

// join unifies the points-to links of two classes (x = y).
func (s *solver) join(a, b *ecr) {
	s.union(s.ptsOf(a), s.ptsOf(b))
}

func (s *solver) stmt(st *ir.Stmt) {
	switch st.Op {
	case ir.OpAddrOf:
		// dst = &src: src joins dst's pointee class.
		s.union(s.ptsOf(s.of(st.Dst)), s.of(st.Src))

	case ir.OpAddrField:
		// dst = &((*p).α): a pointer into whatever p points at.
		s.join(s.of(st.Dst), s.of(st.Ptr))

	case ir.OpCopy, ir.OpPtrArith:
		s.join(s.of(st.Dst), s.of(st.Src))

	case ir.OpLoad:
		// dst = *p: λ(dst) ∪ λ(λ(p)).
		s.union(s.ptsOf(s.of(st.Dst)), s.ptsOf(s.ptsOf(s.of(st.Ptr))))

	case ir.OpStore:
		if st.Src == nil {
			return
		}
		// *p = src: λ(λ(p)) ∪ λ(src).
		s.union(s.ptsOf(s.ptsOf(s.of(st.Ptr))), s.ptsOf(s.of(st.Src)))

	case ir.OpMemCopy:
		// *d ⇐ *s: unify the pointees' pointees.
		s.union(s.ptsOf(s.ptsOf(s.of(st.Ptr))), s.ptsOf(s.ptsOf(s.of(st.Src))))

	case ir.OpCall:
		callee := s.ptsOf(s.of(st.Ptr)) // the class of callable objects
		c := &call{bound: make(map[*ir.Func]bool)}
		for _, a := range st.Args {
			if a == nil {
				c.args = append(c.args, nil)
				continue
			}
			c.args = append(c.args, s.of(a))
		}
		if st.Dst != nil {
			c.result = s.of(st.Dst)
		}
		callee = callee.find()
		callee.calls = append(callee.calls, c)
		for _, fn := range callee.funcs {
			s.bind(c, fn)
		}
	}
}

// bind unifies a call site with one candidate function.
func (s *solver) bind(c *call, fn *ir.Func) {
	if c.bound[fn] {
		return
	}
	c.bound[fn] = true
	for i, a := range c.args {
		if a == nil {
			continue
		}
		if i < len(fn.Params) && fn.Params[i] != nil {
			s.join(a, s.of(fn.Params[i]))
		} else if fn.Varargs != nil {
			s.join(a, s.of(fn.Varargs))
		}
	}
	if c.result != nil && fn.Retval != nil {
		s.join(c.result, s.of(fn.Retval))
	}
}
