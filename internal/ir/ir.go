// Package ir defines the normalized intermediate representation the pointer
// analysis consumes: the paper's five assignment forms (§2), extended with
// the statements needed to make the analysis whole-program:
//
//  1. s = (τ)&t.β       OpAddrOf    (also heap allocation, array decay,
//     function addresses, string literals)
//  2. s = (τ)&((*p).α)  OpAddrField
//  3. s = (τ)t.β        OpCopy      (scalar or block copy)
//  4. s = (τ)*q         OpLoad
//  5. *p = (τp)t        OpStore
//  6. s = q ⊕ e         OpPtrArith  (Assumption 1 smearing)
//  7. r = (*f)(a...)    OpCall      (context-insensitive binding)
//  8. memcpy(*d, *s)    OpMemCopy   (library block copies of unknown size)
//
// All left-hand sides other than stores are top-level objects (temporaries
// introduced during normalization), exactly as in the paper and SUIF.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// ObjKind classifies IR objects.
type ObjKind int

// Object kinds.
const (
	ObjVar     ObjKind = iota // source variable (global, local or static)
	ObjParam                  // function parameter
	ObjFunc                   // function
	ObjHeap                   // allocation-site pseudo-variable
	ObjString                 // string literal
	ObjTemp                   // normalization temporary
	ObjRetval                 // function return value
	ObjVarargs                // variadic argument bucket
)

func (k ObjKind) String() string {
	switch k {
	case ObjVar:
		return "var"
	case ObjParam:
		return "param"
	case ObjFunc:
		return "func"
	case ObjHeap:
		return "heap"
	case ObjString:
		return "string"
	case ObjTemp:
		return "temp"
	case ObjRetval:
		return "retval"
	case ObjVarargs:
		return "varargs"
	}
	return "obj"
}

// Symbol is what the IR keeps of a source symbol. It has no link back into
// the front end, so a lowered program does not keep the AST alive.
type Symbol struct {
	Name   string // source name
	Unique string // program-wide unique name; inline clones share their original's
	Global bool
	Body   bool // a function defined in the program, not an external
}

// Object is an abstract memory object: a variable, parameter, function,
// allocation site, string literal, return-value slot or temporary.
type Object struct {
	ID   int
	Name string
	Kind ObjKind
	Type *types.Type
	Sym  *Symbol // nil for temps/heap/strings
	Fn   *Func   // the function's IR, for function objects that have one
	Pos  token.Pos
}

func (o *Object) String() string { return o.Name }

// IsTemp reports whether the object is a normalization temporary.
func (o *Object) IsTemp() bool { return o.Kind == ObjTemp }

// Path is a sequence of field names (the paper's α, β, γ).
type Path []string

func (p Path) String() string {
	if len(p) == 0 {
		return ""
	}
	return "." + strings.Join(p, ".")
}

// Extend returns p with more components appended (fresh backing array).
func (p Path) Extend(more ...string) Path {
	out := make(Path, 0, len(p)+len(more))
	out = append(out, p...)
	out = append(out, more...)
	return out
}

// Ref is an object plus a field path: the paper's t.β.
type Ref struct {
	Obj  *Object
	Path Path
}

func (r Ref) String() string { return r.Obj.Name + r.Path.String() }

// Op is the statement operation.
type Op int

// Statement operations.
const (
	OpAddrOf Op = iota
	OpAddrField
	OpCopy
	OpLoad
	OpStore
	OpPtrArith
	OpCall
	OpMemCopy
)

func (op Op) String() string {
	switch op {
	case OpAddrOf:
		return "addrof"
	case OpAddrField:
		return "addrfield"
	case OpCopy:
		return "copy"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpPtrArith:
		return "ptrarith"
	case OpCall:
		return "call"
	case OpMemCopy:
		return "memcopy"
	}
	return "op?"
}

// DerefSite identifies one static occurrence of a pointer dereference in the
// source (a *p, p->f or p[i] expression). The paper's Figure 4 averages the
// points-to set sizes over these.
type DerefSite struct {
	ID  int
	Pos token.Pos
	Ptr *Object // the object holding the dereferenced pointer value
}

// Stmt is one normalized statement. Field use by op:
//
//	OpAddrOf:    Dst = &Src.Path
//	OpAddrField: Dst = &((*Ptr).Path)
//	OpCopy:      Dst = Src.Path
//	OpLoad:      Dst = *Ptr
//	OpStore:     *Ptr = Src
//	OpPtrArith:  Dst = Src ⊕ …
//	OpCall:      Dst = (*Ptr)(Args…)   (Dst may be nil)
//	OpMemCopy:   copy *Src into *Ptr (whole objects)
type Stmt struct {
	Op   Op
	Dst  *Object
	Src  *Object
	Ptr  *Object
	Path Path
	Args []*Object

	// Cast records an explicit source-level cast on the right-hand side
	// (diagnostic only; the analysis works from object types).
	Cast *types.Type

	Pos  token.Pos
	Site *DerefSite // set on OpLoad, OpStore, OpAddrField, OpMemCopy
	Fn   *Func      // enclosing function; nil for global initializers
}

func (s *Stmt) String() string {
	cast := ""
	if s.Cast != nil {
		cast = "(" + s.Cast.String() + ")"
	}
	switch s.Op {
	case OpAddrOf:
		return fmt.Sprintf("%s = %s&%s%s", s.Dst, cast, s.Src, s.Path)
	case OpAddrField:
		return fmt.Sprintf("%s = %s&((*%s)%s)", s.Dst, cast, s.Ptr, s.Path)
	case OpCopy:
		return fmt.Sprintf("%s = %s%s%s", s.Dst, cast, s.Src, s.Path)
	case OpLoad:
		return fmt.Sprintf("%s = %s*%s", s.Dst, cast, s.Ptr)
	case OpStore:
		return fmt.Sprintf("*%s = %s%s", s.Ptr, cast, s.Src)
	case OpPtrArith:
		return fmt.Sprintf("%s = %s ⊕ …", s.Dst, s.Src)
	case OpCall:
		var args []string
		for _, a := range s.Args {
			if a == nil {
				args = append(args, "_")
			} else {
				args = append(args, a.Name)
			}
		}
		lhs := ""
		if s.Dst != nil {
			lhs = s.Dst.Name + " = "
		}
		return fmt.Sprintf("%s(*%s)(%s)", lhs, s.Ptr, strings.Join(args, ", "))
	case OpMemCopy:
		return fmt.Sprintf("memcopy *%s ⇐ *%s", s.Ptr, s.Src)
	}
	return "?"
}

// Func groups the IR artifacts of one function.
type Func struct {
	Sym     *Symbol
	Obj     *Object
	Params  []*Object
	Retval  *Object // nil for void result
	Varargs *Object // nil unless variadic
	Stmts   []*Stmt // statements lowered from this function's body
}

func (f *Func) String() string { return f.Sym.Unique }

// Program is the whole-program IR.
type Program struct {
	Objects []*Object
	Funcs   []*Func
	Stmts   []*Stmt // every statement, including global initializers
	Sites   []*DerefSite

	// Warnings lists non-fatal soundness notes (e.g. calls to unknown
	// external functions that were treated as no-ops).
	Warnings []string
}

// NumStmts returns the number of normalized statements (the paper's
// Figure 3, column 4).
func (p *Program) NumStmts() int { return len(p.Stmts) }

// Dump renders the whole program IR for debugging and golden tests.
func (p *Program) Dump() string {
	var sb strings.Builder
	for _, s := range p.Stmts {
		if s.Fn != nil {
			fmt.Fprintf(&sb, "%s: %s\n", s.Fn.Sym.Name, s)
		} else {
			fmt.Fprintf(&sb, "<global>: %s\n", s)
		}
	}
	return sb.String()
}
