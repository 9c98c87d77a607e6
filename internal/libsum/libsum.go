// Package libsum provides pointer-effect summaries for the C library
// functions declared by the built-in headers, playing the role of the
// Wilson–Lam library summaries used in the paper's experiments.
//
// Each summary is expressed as a synthetic IR function body built through
// the ir.Builder Emit API, so library effects flow through exactly the same
// inference rules as user code, and indirect calls that reach a library
// function bind like any other call. Allocator functions are additionally
// special-cased by the IR builder so each direct call site gets its own
// heap pseudo-variable (the paper's malloc_i).
package libsum

import (
	"repro/internal/cc/token"
	"repro/internal/cc/types"
	"repro/internal/ir"
)

// Summaries implements ir.Summarizer for the standard C library.
type Summaries struct{}

var _ ir.Summarizer = Summaries{}

// New returns the standard library summarizer.
func New() Summaries { return Summaries{} }

// allocators return fresh heap blocks; direct calls get per-site
// pseudo-variables.
var allocators = map[string]bool{
	"malloc":  true,
	"calloc":  true,
	"valloc":  true,
	"realloc": true,
	"strdup":  true,
	"fopen":   true,
	"freopen": true,
	"tmpfile": true,
}

// IsAllocator implements ir.Summarizer.
func (Summaries) IsAllocator(name string) bool { return allocators[name] }

// EmitAllocEffects implements ir.Summarizer.
func (Summaries) EmitAllocEffects(b *ir.Builder, name string, res *ir.Object, args []*ir.Object, pos token.Pos) {
	switch name {
	case "realloc":
		// The result may be the old block grown in place, and the new
		// block holds a copy of the old block's contents.
		if len(args) > 0 && args[0] != nil {
			b.EmitCopy(res, ir.Ref{Obj: args[0]}, pos)
			b.EmitMemCopy(res, args[0], pos)
		}
	case "strdup":
		// The fresh block holds a copy of the argument's contents.
		if len(args) > 0 && args[0] != nil {
			b.EmitMemCopy(res, args[0], pos)
		}
	case "freopen":
		if len(args) > 2 && args[2] != nil {
			b.EmitCopy(res, ir.Ref{Obj: args[2]}, pos)
		}
	}
}

// effect describes one library function's pointer behaviour.
type effect struct {
	retArg        int    // result aliases this argument (-1: none)
	retStatic     bool   // result points to an internal static buffer
	memcpy        [2]int // MemCopy dst,src argument indices ({-1,-1}: none)
	keepArg       int    // argument saved in an internal static (strtok) (-1: none)
	callArg       int    // argument invoked as a function pointer (-1: none)
	callWith      []int  // argument indices passed to the invoked pointer
	retFromStatic bool   // result read back from the internal static
}

func noEffect() effect {
	return effect{retArg: -1, memcpy: [2]int{-1, -1}, keepArg: -1, callArg: -1}
}

func retArg(i int) effect {
	e := noEffect()
	e.retArg = i
	return e
}

func copyEffect(dst, src int, ret int) effect {
	e := noEffect()
	e.memcpy = [2]int{dst, src}
	e.retArg = ret
	return e
}

func retStatic() effect {
	e := noEffect()
	e.retStatic = true
	return e
}

// summaries maps function names to their effects. Functions with no pointer
// effects (pure, or writing only non-address data) map to noEffect.
var summaries = map[string]effect{
	// <string.h>
	"memcpy":   copyEffect(0, 1, 0),
	"memmove":  copyEffect(0, 1, 0),
	"memset":   retArg(0),
	"memcmp":   noEffect(),
	"memchr":   retArg(0),
	"strcpy":   copyEffect(0, 1, 0),
	"strncpy":  copyEffect(0, 1, 0),
	"strcat":   copyEffect(0, 1, 0),
	"strncat":  copyEffect(0, 1, 0),
	"strcmp":   noEffect(),
	"strncmp":  noEffect(),
	"strchr":   retArg(0),
	"strrchr":  retArg(0),
	"strstr":   retArg(0),
	"strpbrk":  retArg(0),
	"strspn":   noEffect(),
	"strcspn":  noEffect(),
	"strlen":   noEffect(),
	"strerror": retStatic(),

	// <stdio.h>
	"fclose":  noEffect(),
	"fflush":  noEffect(),
	"fprintf": noEffect(),
	"printf":  noEffect(),
	"sprintf": retArg(0),
	"fscanf":  noEffect(),
	"scanf":   noEffect(),
	"sscanf":  noEffect(),
	"fgetc":   noEffect(),
	"getc":    noEffect(),
	"getchar": noEffect(),
	"fgets":   retArg(0),
	"gets":    retArg(0),
	"fputc":   noEffect(),
	"putc":    noEffect(),
	"putchar": noEffect(),
	"fputs":   noEffect(),
	"puts":    noEffect(),
	"ungetc":  noEffect(),
	"fread":   noEffect(),
	"fwrite":  noEffect(),
	"fseek":   noEffect(),
	"ftell":   noEffect(),
	"rewind":  noEffect(),
	"perror":  noEffect(),

	// <stdlib.h>
	"free":   noEffect(),
	"exit":   noEffect(),
	"abort":  noEffect(),
	"atoi":   noEffect(),
	"atol":   noEffect(),
	"atof":   noEffect(),
	"rand":   noEffect(),
	"srand":  noEffect(),
	"abs":    noEffect(),
	"labs":   noEffect(),
	"getenv": retStatic(),
	"system": noEffect(),

	// <ctype.h>
	"isalpha": noEffect(), "isdigit": noEffect(), "isalnum": noEffect(),
	"isspace": noEffect(), "isupper": noEffect(), "islower": noEffect(),
	"ispunct": noEffect(), "isprint": noEffect(), "iscntrl": noEffect(),
	"isxdigit": noEffect(), "toupper": noEffect(), "tolower": noEffect(),

	// <math.h>
	"sqrt": noEffect(), "pow": noEffect(), "fabs": noEffect(),
	"floor": noEffect(), "ceil": noEffect(), "sin": noEffect(),
	"cos": noEffect(), "exp": noEffect(), "log": noEffect(),
	"fmod": noEffect(),

	// <assert.h>, <setjmp.h>, <errno.h>
	"__assert_fail": noEffect(),
	"setjmp":        noEffect(),
	"longjmp":       noEffect(),

	// <time.h>
	"time":      noEffect(),
	"clock":     noEffect(),
	"difftime":  noEffect(),
	"mktime":    noEffect(),
	"localtime": retStatic(),
	"gmtime":    retStatic(),
	"ctime":     retStatic(),
	"asctime":   retStatic(),
}

func init() {
	// strtol/strtoul/strtod write a pointer *into the input string*
	// through their end-pointer argument. Model: *arg1 = arg0.
	e := noEffect()
	e.keepArg = -2 // special marker handled in EmitBody
	summaries["strtol"] = e
	summaries["strtoul"] = e
	summaries["strtod"] = e

	// strtok saves its argument in an internal static and returns
	// pointers into it.
	t := retArg(0)
	t.keepArg = 0
	t.retFromStatic = true
	summaries["strtok"] = t

	// qsort(base, n, size, cmp) invokes cmp with pointers into base.
	q := noEffect()
	q.callArg = 3
	q.callWith = []int{0, 0}
	summaries["qsort"] = q

	// bsearch(key, base, n, size, cmp) invokes cmp with (key, base) and
	// returns a pointer into base.
	bs := retArg(1)
	bs.callArg = 4
	bs.callWith = []int{0, 1}
	summaries["bsearch"] = bs

	// atexit(fn) eventually invokes fn.
	ax := noEffect()
	ax.callArg = 0
	summaries["atexit"] = ax
}

// EmitBody implements ir.Summarizer: it builds a synthetic body for fn.
func (Summaries) EmitBody(b *ir.Builder, fn *ir.Func) bool {
	name := fn.Sym.Name
	eff, ok := summaries[name]
	if !ok {
		return false
	}
	pos := fn.Obj.Pos
	param := func(i int) *ir.Object {
		if i >= 0 && i < len(fn.Params) {
			return fn.Params[i]
		}
		return nil
	}

	// strtol family: *arg1 = arg0.
	if eff.keepArg == -2 {
		if p0, p1 := param(0), param(1); p0 != nil && p1 != nil {
			b.EmitStore(p1, p0, pos)
		}
		return true
	}

	if eff.memcpy[0] >= 0 {
		if d, s := param(eff.memcpy[0]), param(eff.memcpy[1]); d != nil && s != nil {
			b.EmitMemCopy(d, s, pos)
		}
	}
	if eff.retArg >= 0 && fn.Retval != nil {
		if a := param(eff.retArg); a != nil {
			b.EmitCopy(fn.Retval, ir.Ref{Obj: a}, pos)
		}
	}
	if eff.retStatic && fn.Retval != nil {
		buf := b.NewStatic(name+"@static", types.ArrayOf(b.Universe().Basic(types.Char), 64), pos)
		b.EmitAddrOf(fn.Retval, ir.Ref{Obj: buf}, pos)
	}
	if eff.keepArg >= 0 {
		saved := b.NewStatic(name+"@saved", types.PointerTo(b.Universe().Basic(types.Char)), pos)
		if a := param(eff.keepArg); a != nil {
			b.EmitCopy(saved, ir.Ref{Obj: a}, pos)
		}
		if eff.retFromStatic && fn.Retval != nil {
			b.EmitCopy(fn.Retval, ir.Ref{Obj: saved}, pos)
		}
	}
	if eff.callArg >= 0 {
		if fp := param(eff.callArg); fp != nil {
			var args []*ir.Object
			for _, i := range eff.callWith {
				args = append(args, param(i))
			}
			b.EmitCall(nil, fp, args, pos)
		}
	}
	return true
}
