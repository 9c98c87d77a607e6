package export

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/pointsto"
)

// SnapshotVersion is the wire-format version of Snapshot. Readers reject
// every other version, so a daemon restarted onto an incompatible spill
// directory re-solves instead of serving garbage.
const SnapshotVersion = 1

// IncompleteJSON is the wire form of a partial-result marker: the reason a
// run stopped before fixpoint and the solver counters at the stop.
type IncompleteJSON struct {
	Reason string `json:"reason"`
	Steps  int    `json:"steps"`
	Facts  int    `json:"facts"`
	Cells  int    `json:"cells"`
	Limit  int    `json:"limit"`
}

// Snapshot is the serializable, queryable form of one solved analysis: the
// result cache's value type and the disk-spill wire format. It carries
// everything the query endpoints need — per-variable points-to sets, the
// full cell-level sets, the summary counters and the incompleteness marker —
// without retaining the IR or the solver state, so a cached program costs
// only its strings.
type Snapshot struct {
	Version      int     `json:"version"`
	Strategy     string  `json:"strategy"`
	ABI          string  `json:"abi"`
	TotalFacts   int     `json:"total_facts"`
	DerefSites   int     `json:"deref_sites"`
	AvgDerefSize float64 `json:"avg_deref_size"`
	Steps        int     `json:"steps"`
	DurationNS   int64   `json:"duration_ns"`
	// Incomplete is nil for a run that reached fixpoint. A non-nil marker
	// means the recorded facts are sound but not exhaustive: negative
	// answers (empty sets, MayAlias == false) are not conclusive.
	Incomplete *IncompleteJSON `json:"incomplete,omitempty"`
	// Vars maps every queryable source-level name to its sorted points-to
	// targets (empty slice for a name whose set is empty). The target
	// strings are cell names; object names are uniquified by the front
	// end, so string equality coincides with cell equality.
	Vars map[string][]string `json:"vars"`
	// Sets is the cell-level dump (named, non-temporary cells only).
	Sets []PointsTo `json:"sets"`
}

// NewSnapshot captures a facade report into its wire form. abi names the
// layout the report was produced under ("" means the lp64 default).
func NewSnapshot(r *pointsto.Report, abi string) *Snapshot {
	if abi == "" {
		abi = "lp64"
	}
	s := &Snapshot{
		Version:      SnapshotVersion,
		Strategy:     r.Strategy().String(),
		ABI:          abi,
		TotalFacts:   r.TotalFacts(),
		DerefSites:   r.NumDerefSites(),
		AvgDerefSize: r.DerefSetSize(),
		Steps:        r.Steps(),
		DurationNS:   r.Duration().Nanoseconds(),
		Vars:         make(map[string][]string),
	}
	for _, name := range r.Names() {
		targets := r.PointsTo(name)
		if targets == nil {
			targets = []string{}
		}
		s.Vars[name] = targets
	}
	s.Sets = r.Sets()
	if inc := r.Incomplete(); inc != nil {
		s.Incomplete = &IncompleteJSON{
			Reason: inc.Reason,
			Steps:  inc.Steps,
			Facts:  inc.Facts,
			Cells:  inc.Cells,
			Limit:  inc.Limit,
		}
	}
	return s
}

// HasVar reports whether name is a queryable variable or function of the
// snapshotted program (distinguishing "unknown name" from "empty set").
func (s *Snapshot) HasVar(name string) bool {
	_, ok := s.Vars[name]
	return ok
}

// PointsTo returns the sorted points-to targets of the named variable, nil
// for an unknown name.
func (s *Snapshot) PointsTo(name string) []string {
	targets, ok := s.Vars[name]
	if !ok || len(targets) == 0 {
		return nil
	}
	return targets
}

// MayAlias reports whether the two named pointers may reference the same
// cell, by intersecting their recorded points-to sets. Unknown names never
// alias. Matches pointsto.Report.MayAlias on the snapshotted report.
func (s *Snapshot) MayAlias(a, b string) bool {
	sa := s.Vars[a]
	if len(sa) == 0 {
		return false
	}
	seen := make(map[string]bool, len(sa))
	for _, t := range sa {
		seen[t] = true
	}
	for _, t := range s.Vars[b] {
		if seen[t] {
			return true
		}
	}
	return false
}

// SizeBytes estimates the snapshot's retained memory (strings plus slice
// and map overhead); the store's byte budget is accounted in these units.
func (s *Snapshot) SizeBytes() int {
	n := 256
	for name, targets := range s.Vars {
		n += 48 + len(name)
		for _, t := range targets {
			n += 16 + len(t)
		}
	}
	for _, set := range s.Sets {
		n += 48 + len(set.Cell)
		for _, t := range set.Targets {
			n += 16 + len(t)
		}
	}
	return n
}

// WriteSnapshot marshals the snapshot to w in its wire form (indented,
// deterministic: map keys are emitted sorted).
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot unmarshals one snapshot and validates its version. The
// result of a round trip is deep-equal to the written snapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("export: decode snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("export: snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	if s.Vars == nil {
		s.Vars = make(map[string][]string)
	}
	return &s, nil
}

// SortedVarNames returns the snapshot's queryable names in sorted order.
func (s *Snapshot) SortedVarNames() []string {
	out := make([]string, 0, len(s.Vars))
	for name := range s.Vars {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
