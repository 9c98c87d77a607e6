package main

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"repro/internal/cc/layout"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/pointsto"
)

// digest identifies one sorted points-to dump. Only the sets are hashed:
// they are a pure function of (program, instance), unlike schedule
// counters (ParSteals, Intern*, Par*) and timings, which are never checked.
type digest [32]byte

func (d digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// setsDigest hashes a sorted Sets() dump.
func setsDigest(sets []pointsto.Set) digest {
	h := sha256.New()
	for _, s := range sets {
		h.Write([]byte(s.Cell))
		h.Write([]byte{':'})
		for _, t := range s.Targets {
			h.Write([]byte{' '})
			h.Write([]byte(t))
		}
		h.Write([]byte{'\n'})
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// resultSets renders a core result the way pointsto.Report.Sets does: every
// named (non-temporary) cell with a non-empty set, sorted by cell, targets
// sorted.
func resultSets(r *core.Result) []pointsto.Set {
	var out []pointsto.Set
	for _, c := range r.SortedCells() {
		if c.Obj.IsTemp() {
			continue
		}
		s := pointsto.Set{Cell: c.String()}
		for _, t := range r.PointsToCell(c).Sorted() {
			s.Targets = append(s.Targets, t.String())
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// newStrategy builds the core instance behind a pointsto.Strategy, with a
// private layout engine as pointsto.AnalyzeAll gives each job.
func newStrategy(s pointsto.Strategy, abi *layout.ABI) core.Strategy {
	switch s {
	case pointsto.CollapseAlways:
		return core.NewCollapseAlways()
	case pointsto.CollapseOnCast:
		return core.NewCollapseOnCast()
	case pointsto.Offsets:
		return core.NewOffsets(layout.New(abi))
	default:
		return core.NewCIS()
	}
}

func frontendSources(src []pointsto.Source) []frontend.Source {
	out := make([]frontend.Source, len(src))
	for i, s := range src {
		out[i] = frontend.Source{Name: s.Name, Text: s.Text}
	}
	return out
}

// referenceDigest solves src under s with the retained map-based solver
// (core.AnalyzeReference) and digests its dump.
func referenceDigest(src []pointsto.Source, s pointsto.Strategy) (digest, error) {
	res, err := frontend.Load(frontendSources(src), frontend.Options{ABI: layout.LP64})
	if err != nil {
		return digest{}, fmt.Errorf("oracle: %w", err)
	}
	r := core.AnalyzeReference(res.IR, newStrategy(s, res.Layout.ABI()), core.Options{})
	if r.Incomplete != nil {
		return digest{}, fmt.Errorf("oracle: reference solve of %s stopped early", s)
	}
	return setsDigest(resultSets(r)), nil
}

// oracle collects the digests ops produced and checks them, after the
// measurement, against the reference solver.
type oracle struct {
	inputs map[string]oracleInput // key -> what to solve
	want   map[string]digest
}

type oracleInput struct {
	src   []pointsto.Source
	strat pointsto.Strategy
}

func newOracle() *oracle {
	return &oracle{inputs: make(map[string]oracleInput), want: make(map[string]digest)}
}

// key names one (program, instance) pair and registers it for checking.
func (or *oracle) key(program string, src []pointsto.Source, s pointsto.Strategy) string {
	k := program + "/" + s.String()
	if _, ok := or.inputs[k]; !ok {
		or.inputs[k] = oracleInput{src: src, strat: s}
	}
	return k
}

// solve computes the reference digest of every registered pair.
func (or *oracle) solve() error {
	for k, in := range or.inputs {
		if _, ok := or.want[k]; ok {
			continue
		}
		d, err := referenceDigest(in.src, in.strat)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		or.want[k] = d
	}
	return nil
}

// check reports whether got matches the reference for key.
func (or *oracle) check(key string, got digest) bool {
	want, ok := or.want[key]
	return ok && want == got
}
