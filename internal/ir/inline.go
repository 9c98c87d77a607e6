package ir

import "fmt"

// InlineAllocWrappers inlines small allocation-wrapper functions at their
// direct call sites, giving each call site its own copies of the wrapper's
// heap pseudo-variables (one level of heap cloning). Plain allocation-site
// naming — what the paper uses — merges every object created through a
// wrapper like
//
//	struct node *new_node(void) { return malloc(sizeof(struct node)); }
//
// into one abstract object; cloning recovers the per-caller distinction.
// Off by default (the paper's configuration); exposed for the ablation
// benchmarks and as a library feature.
//
// A function qualifies when it has a body of at most maxStmts statements,
// allocates at least one heap object, and contains no further calls (which
// also excludes recursion). The wrapper's original body remains in place
// for any remaining indirect calls. Dereference sites inside clones become
// new static sites, like macro-expanded code.
//
// It returns the number of call sites inlined.
func InlineAllocWrappers(p *Program, maxStmts int) int {
	if maxStmts <= 0 {
		maxStmts = 24
	}

	// Identify candidate wrappers.
	candidates := make(map[*Func]bool)
	for _, fn := range p.Funcs {
		if len(fn.Stmts) == 0 || len(fn.Stmts) > maxStmts || fn.Retval == nil {
			continue
		}
		hasHeap := false
		for _, st := range fn.Stmts {
			if st.Op == OpAddrOf && st.Src != nil && st.Src.Kind == ObjHeap {
				hasHeap = true
			}
		}
		// Calls inside the wrapper are fine: cloned call statements bind
		// through the solver like any other, and because inlining is a
		// single pass over the original statement list, even recursive
		// wrappers cannot cascade.
		if hasHeap {
			candidates[fn] = true
		}
	}
	if len(candidates) == 0 {
		return 0
	}

	// Map each call-pointer temp to its statically known function: a temp
	// assigned exactly once, by an AddrOf of a function object.
	assigns := make(map[*Object]int)  // writes per temp
	funcOf := make(map[*Object]*Func) // temp -> callee
	for _, st := range p.Stmts {
		if st.Dst == nil || st.Dst.Kind != ObjTemp {
			continue
		}
		assigns[st.Dst]++
		if st.Op == OpAddrOf && st.Src != nil && st.Src.Fn != nil {
			funcOf[st.Dst] = st.Src.Fn
		}
	}

	nextID := 0
	for _, o := range p.Objects {
		if o.ID > nextID {
			nextID = o.ID
		}
	}

	inlined := 0
	var out []*Stmt
	for _, st := range p.Stmts {
		if st.Op != OpCall {
			out = append(out, st)
			continue
		}
		callee := funcOf[st.Ptr]
		if callee == nil || assigns[st.Ptr] != 1 || !candidates[callee] {
			out = append(out, st)
			continue
		}
		inlined++

		// Clone the callee's local objects for this site.
		clones := make(map[*Object]*Object)
		cloneObj := func(o *Object) *Object {
			if o == nil {
				return nil
			}
			local := o.Kind == ObjTemp || o.Kind == ObjHeap ||
				o.Kind == ObjParam || o.Kind == ObjRetval || o.Kind == ObjVarargs ||
				(o.Kind == ObjVar && o.Sym != nil && !o.Sym.Global)
			if !local {
				return o
			}
			c, ok := clones[o]
			if !ok {
				nextID++
				c = &Object{
					ID:   nextID,
					Name: fmt.Sprintf("%s#%s", o.Name, st.Pos),
					Kind: o.Kind,
					Type: o.Type,
					Sym:  o.Sym,
					Pos:  st.Pos,
				}
				clones[o] = c
				p.Objects = append(p.Objects, c)
			}
			return c
		}

		// Bind arguments to the cloned parameters.
		for i, arg := range st.Args {
			if arg == nil {
				continue
			}
			if i < len(callee.Params) && callee.Params[i] != nil {
				out = append(out, &Stmt{
					Op: OpCopy, Dst: cloneObj(callee.Params[i]),
					Src: arg, Pos: st.Pos, Fn: st.Fn,
				})
			} else if callee.Varargs != nil {
				out = append(out, &Stmt{
					Op: OpCopy, Dst: cloneObj(callee.Varargs),
					Src: arg, Pos: st.Pos, Fn: st.Fn,
				})
			}
		}
		// Cloned body; dereference sites inside the clone become new
		// static sites (one per original site, shared by the statements
		// that shared it).
		siteClones := make(map[*DerefSite]*DerefSite)
		for _, bs := range callee.Stmts {
			cs := &Stmt{
				Op:   bs.Op,
				Dst:  cloneObj(bs.Dst),
				Src:  cloneObj(bs.Src),
				Ptr:  cloneObj(bs.Ptr),
				Path: bs.Path,
				Cast: bs.Cast,
				Pos:  bs.Pos,
				Fn:   st.Fn,
			}
			for _, a := range bs.Args {
				cs.Args = append(cs.Args, cloneObj(a))
			}
			if bs.Site != nil {
				ns, ok := siteClones[bs.Site]
				if !ok {
					ns = &DerefSite{
						ID:  len(p.Sites) + 1,
						Pos: bs.Site.Pos,
						Ptr: cloneObj(bs.Site.Ptr),
					}
					siteClones[bs.Site] = ns
					p.Sites = append(p.Sites, ns)
				}
				cs.Site = ns
			}
			out = append(out, cs)
		}
		// Bind the cloned return value.
		if st.Dst != nil && callee.Retval != nil {
			out = append(out, &Stmt{
				Op: OpCopy, Dst: st.Dst,
				Src: cloneObj(callee.Retval), Pos: st.Pos, Fn: st.Fn,
			})
		}
	}
	p.Stmts = out
	return inlined
}
