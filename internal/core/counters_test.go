package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestCounterSchemaComplete checks that every Recorder and WaveStats field
// is exactly one counter with a unique name, a unit, help text and a known
// class — a field added without its tags fails here.
func TestCounterSchemaComplete(t *testing.T) {
	fields := reflect.TypeOf(core.Recorder{}).NumField() + reflect.TypeOf(core.WaveStats{}).NumField()
	if len(core.Counters) != fields {
		t.Fatalf("%d counters for %d Recorder+WaveStats fields", len(core.Counters), fields)
	}
	seen := map[string]bool{}
	var rec core.Recorder
	var ws core.WaveStats
	for i, c := range core.Counters {
		if c.Name == "" || c.Unit == "" || c.Help == "" {
			t.Errorf("counter %d (%q) lacks a name, unit or help text: %+v", i, c.Name, c)
		}
		if c.Class != core.Pure && c.Class != core.Schedule && c.Class != core.Machine {
			t.Errorf("counter %s has unknown class %q", c.Name, c.Class)
		}
		if seen[c.Name] {
			t.Errorf("counter name %s declared twice", c.Name)
		}
		seen[c.Name] = true
		// Each entry addresses its own field: marking them in turn never
		// lands on a field an earlier entry already marked.
		p := c.Field(&rec, &ws)
		if *p != 0 {
			t.Errorf("counter %s shares its field with an earlier counter", c.Name)
		}
		*p = i + 1
	}
}

func TestCounterAddAndZero(t *testing.T) {
	a := core.WaveStats{Waves: 2, ParSteals: 1, PeakLiveBytes: 100, PrepClasses: 3}
	a.Add(core.WaveStats{Waves: 5, ParSteals: 1, PeakLiveBytes: 40, PrepClasses: 1})
	want := core.WaveStats{Waves: 7, ParSteals: 2, PeakLiveBytes: 100, PrepClasses: 4}
	if a != want {
		t.Errorf("Add = %+v, want %+v (peaks merge by max, the rest sum)", a, want)
	}
	rec := core.Recorder{LookupCalls: 9, LookupCacheHits: 4}
	core.Zero(&rec, &a, core.Machine)
	want.ParSteals, want.PeakLiveBytes = 0, 0
	if a != want || rec.LookupCacheHits != 4 {
		t.Errorf("Zero(machine) = %+v %+v", a, rec)
	}
	core.Zero(&rec, &a, core.Schedule)
	if a != (core.WaveStats{PrepClasses: 4}) || rec != (core.Recorder{LookupCalls: 9}) {
		t.Errorf("Zero(schedule) = %+v %+v", a, rec)
	}
	core.Zero(nil, &a, core.Pure) // a nil side is skipped
	if a != (core.WaveStats{}) {
		t.Errorf("Zero(pure) left %+v", a)
	}
}
