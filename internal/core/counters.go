package core

import (
	"reflect"
	"strings"
	"unsafe"
)

// This file is the counter schema. Every field of Recorder and WaveStats is
// one counter, declared once by its tags:
//
//	json   the wire name (and omitempty) of the export document and /varz
//	unit   what one count is
//	class  its determinism class: pure, schedule or machine
//	merge  "max" for a peak that combines by maximum instead of by sum
//	help   a one-line description for tables
//
// The solver increments the fields directly; only consumers (export,
// /varz, the -stats tables, regression baselines, incremental carry-over)
// walk Counters, so adding a counter means declaring the field and
// incrementing it.

// Class is a counter's determinism class: the runs that must agree on it.
type Class string

const (
	// Pure counters are a function of (program, strategy): equal at every
	// Parallelism, pinned by regression baselines.
	Pure Class = "pure"
	// Schedule counters are fixed at one executor configuration but move
	// with Options.Parallelism.
	Schedule Class = "schedule"
	// Machine counters vary run to run (thread timing, heap state).
	Machine Class = "machine"
)

// Counter is one declared counter.
type Counter struct {
	Name  string // JSON key
	Unit  string
	Help  string
	Class Class
	Max   bool // merges by maximum (a peak), not by sum
	Wave  bool // a WaveStats field; a Recorder field otherwise

	offset uintptr // of the int field within its struct
}

// Counters lists every counter: Recorder's fields, then WaveStats', each in
// declaration order.
var Counters = append(declare(reflect.TypeOf(Recorder{}), false),
	declare(reflect.TypeOf(WaveStats{}), true)...)

func declare(t reflect.Type, wave bool) []Counter {
	out := make([]Counter, t.NumField())
	for i := range out {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Int {
			panic("core: counter field " + t.Name() + "." + f.Name + " is not an int")
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		out[i] = Counter{Name: name, Unit: f.Tag.Get("unit"), Help: f.Tag.Get("help"),
			Class: Class(f.Tag.Get("class")), Max: f.Tag.Get("merge") == "max",
			Wave: wave, offset: f.Offset}
	}
	return out
}

// Field returns the address of c's field in rec or ws, whichever declares
// it, or nil when that one is nil. It is pointer arithmetic over the offset
// declare recorded, so walking the schema costs no reflection or
// allocation.
func (c *Counter) Field(rec *Recorder, ws *WaveStats) *int {
	base := unsafe.Pointer(rec)
	if c.Wave {
		base = unsafe.Pointer(ws)
	}
	if base == nil {
		return nil
	}
	return (*int)(unsafe.Add(base, c.offset))
}

// Add folds o into w: counters sum, peaks keep the maximum.
func (w *WaveStats) Add(o WaveStats) {
	for _, c := range Counters {
		if p := c.Field(nil, w); p != nil {
			if c.Max {
				*p = max(*p, *c.Field(nil, &o))
			} else {
				*p += *c.Field(nil, &o)
			}
		}
	}
}

// Zero clears every counter of class cl in rec and ws (either may be nil).
func Zero(rec *Recorder, ws *WaveStats, cl Class) {
	for _, c := range Counters {
		if p := c.Field(rec, ws); p != nil && c.Class == cl {
			*p = 0
		}
	}
}
