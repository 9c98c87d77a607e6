package incr

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
)

// The graph snapshot is the restart-surviving form of a Graph, carried in
// the same checked-container frame as the store's result spill:
//
//	ptrincr1 <64 hex sha256> <decimal payload bytes>\n
//	{ ...JSON payload... }
//
// The payload holds the config, the verbatim sources, a cell dictionary
// (each cell naming its object by INDEX into the deterministic
// ir.Program.Objects order) and every cell's final points-to set. Decoding
// re-runs the front end over the embedded sources to rebind the indices to
// live objects and recompute the unit fingerprints — the IR build is
// deterministic, so index i denotes the same object on every decode.
// Unlike the result spill there is no legacy headerless fallback: the
// format is new, so anything without the header is corrupt.

// snapMagic opens every graph-snapshot header line.
const snapMagic = "ptrincr1"

// snapVersion is the payload wire version.
const snapVersion = 1

// CorruptError tags a snapshot read that failed verification — truncation,
// checksum mismatch, malformed header or payload, wrong version, or a
// payload inconsistent with its own embedded sources. Callers quarantine
// on it; plain I/O errors come back unwrapped.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "incr: corrupt graph snapshot: " + e.Reason }

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

type snapSource struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

type snapCell struct {
	Obj   int    `json:"obj"`
	Off   int64  `json:"off,omitempty"`
	Path  string `json:"path,omitempty"`
	ByOff bool   `json:"by_off,omitempty"`
}

type snapFact struct {
	Cell    int   `json:"cell"`
	Targets []int `json:"targets"`
}

type snapPayload struct {
	Version int          `json:"version"`
	Config  Config       `json:"config"`
	Sources []snapSource `json:"sources"`
	// Objects pins the expected object count of the re-parsed program, a
	// cheap consistency check on the index space.
	Objects int        `json:"objects"`
	Cells   []snapCell `json:"cells"`
	Facts   []snapFact `json:"facts"`
}

// WriteSnapshot writes g in the checked ptrincr1 container format.
func WriteSnapshot(w io.Writer, g *Graph) error {
	objIdx := make(map[*ir.Object]int, len(g.prog.Objects))
	for i, o := range g.prog.Objects {
		objIdx[o] = i
	}
	cellIdx := make(map[core.Cell]int)
	p := snapPayload{Version: snapVersion, Config: g.cfg, Objects: len(g.prog.Objects)}
	for _, s := range g.sources {
		p.Sources = append(p.Sources, snapSource{Name: s.Name, Text: s.Text})
	}
	intern := func(c core.Cell) (int, error) {
		if i, ok := cellIdx[c]; ok {
			return i, nil
		}
		oi, ok := objIdx[c.Obj]
		if !ok {
			return 0, fmt.Errorf("incr: cell %v references an object outside the program", c)
		}
		i := len(p.Cells)
		cellIdx[c] = i
		p.Cells = append(p.Cells, snapCell{Obj: oi, Off: c.Off, Path: c.Path(), ByOff: c.ByOff})
		return i, nil
	}
	for _, c := range g.order {
		ci, err := intern(c)
		if err != nil {
			return err
		}
		fact := snapFact{Cell: ci}
		for _, t := range g.facts[c] {
			ti, err := intern(t)
			if err != nil {
				return err
			}
			fact.Targets = append(fact.Targets, ti)
		}
		p.Facts = append(p.Facts, fact)
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s %s %d\n", snapMagic, hex.EncodeToString(sum[:]), len(payload)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// WriteSnapshot is the package-level WriteSnapshot as a method.
func (g *Graph) WriteSnapshot(w io.Writer) error { return WriteSnapshot(w, g) }

// ReadSnapshot reads one graph from the checked container, verifying
// length and digest before decoding and re-running the front end over the
// embedded sources to rebind object indices. Every verification or
// consistency failure is a *CorruptError.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, corruptf("truncated header")
	}
	fields := strings.Fields(strings.TrimSuffix(header, "\n"))
	if len(fields) != 3 || fields[0] != snapMagic {
		return nil, corruptf("malformed header %q", header)
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, corruptf("malformed digest %q", fields[1])
	}
	var length int64
	if _, err := fmt.Sscanf(fields[2], "%d", &length); err != nil || length < 0 {
		return nil, corruptf("malformed length %q", fields[2])
	}
	// Read what is there rather than allocating the declared length: a
	// damaged header may declare more bytes than any file holds.
	payload, err := io.ReadAll(io.LimitReader(br, length))
	if err != nil {
		return nil, corruptf("truncated payload: %v", err)
	}
	if int64(len(payload)) != length {
		return nil, corruptf("truncated payload: %d of %d bytes", len(payload), length)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, corruptf("trailing bytes after declared payload")
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], wantSum) {
		return nil, corruptf("checksum mismatch")
	}
	var p snapPayload
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, corruptf("undecodable payload: %v", err)
	}
	if p.Version != snapVersion {
		return nil, corruptf("unsupported version %d", p.Version)
	}
	return rebind(&p)
}

// rebind reconstructs the live Graph from a verified payload.
func rebind(p *snapPayload) (*Graph, error) {
	cfg := p.Config.withDefaults()
	fopts, err := cfg.frontend()
	if err != nil {
		return nil, corruptf("%v", err)
	}
	sources := make([]frontend.Source, len(p.Sources))
	for i, s := range p.Sources {
		sources[i] = frontend.Source{Name: s.Name, Text: s.Text}
	}
	res, err := frontend.Load(sources, fopts)
	if err != nil {
		// The digest matched, so the bytes are what was written — but a
		// payload whose own sources do not compile was never a valid
		// snapshot.
		return nil, corruptf("embedded sources do not load: %v", err)
	}
	if len(res.IR.Objects) != p.Objects {
		return nil, corruptf("object count mismatch: payload says %d, program has %d", p.Objects, len(res.IR.Objects))
	}
	cells := make([]core.Cell, len(p.Cells))
	for i, sc := range p.Cells {
		if sc.Obj < 0 || sc.Obj >= len(res.IR.Objects) {
			return nil, corruptf("cell %d references object %d of %d", i, sc.Obj, len(res.IR.Objects))
		}
		c, ok := core.CellAt(res.IR.Objects[sc.Obj], sc.Off, sc.Path, sc.ByOff)
		if !ok {
			return nil, corruptf("cell %d: object %d has no field path %q", i, sc.Obj, sc.Path)
		}
		cells[i] = c
	}
	g := &Graph{
		cfg:     cfg,
		sources: sources,
		prog:    res.IR,
		lay:     res.Layout,
		units:   fingerprints(res.IR),
		facts:   make(map[core.Cell][]core.Cell, len(p.Facts)),
	}
	for _, f := range p.Facts {
		if f.Cell < 0 || f.Cell >= len(cells) {
			return nil, corruptf("fact references cell %d of %d", f.Cell, len(cells))
		}
		c := cells[f.Cell]
		if _, dup := g.facts[c]; dup {
			return nil, corruptf("duplicate fact entry for cell %v", c)
		}
		targets := make([]core.Cell, len(f.Targets))
		for j, ti := range f.Targets {
			if ti < 0 || ti >= len(cells) {
				return nil, corruptf("fact target references cell %d of %d", ti, len(cells))
			}
			targets[j] = cells[ti]
		}
		if len(targets) == 0 {
			return nil, corruptf("empty fact entry for cell %v", c)
		}
		g.order = append(g.order, c)
		g.facts[c] = targets
	}
	return g, nil
}
