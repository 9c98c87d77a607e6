package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/pointsto"
)

// keyVersion is folded into every key so a change to the canonicalization
// (or to the snapshot semantics it addresses) invalidates old disk spills
// wholesale instead of aliasing them.
const keyVersion = "ptrcache/1"

// Key computes the content address of one analysis request: the SHA-256 of
// the canonicalized source set plus every configuration input that can
// change the solved fixpoint — strategy, ABI, front-end/solver options and
// resource limits.
//
// Canonicalization: sources are sorted by (name, text) and length-prefixed,
// so neither presentation order nor embedded separators can alias two
// distinct programs. Limits are part of the key because a limit-tripped
// report is a different (partial) value than the full fixpoint. Deliberately
// excluded: Timeout (canceled runs are never cached), Config.Parallelism,
// Options.Parallelism (the intra-solve wave executor is byte-identical to
// the sequential solver at every worker count),
// DemandBudget (none changes the result, only how fast it arrives — a
// budget trip reroutes to the same exhaustive fixpoint), and
// NoPrepass/TrackPeakMem (the offline constraint-reduction prepass and its
// hash-consed set pool are observable only through SolverStats, so the
// ablation solves to the same facts it would cache). The
// exclusion also means a warm session's key equals the limit-free
// /v1/analyze key for the same sources, so the two tiers share addresses.
//
// The incremental layer reuses these keys as graph-residency addresses: an
// /v1/analyze response's key is what a later request passes as "base" to
// resume from that solve's captured constraint graph. Graph identity is
// narrower than key identity — NoCycleElim participates in a graph's
// captured config (incr.Config) even though it is excluded here, and
// Limits/FlagMisuse configs never capture graphs at all — so the server
// re-checks the captured config on every resume rather than trusting the
// key alone.
func Key(sources []pointsto.Source, cfg pointsto.Config) string {
	h := sha256.New()
	io.WriteString(h, keyVersion)

	srcs := append([]pointsto.Source(nil), sources...)
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].Name != srcs[j].Name {
			return srcs[i].Name < srcs[j].Name
		}
		return srcs[i].Text < srcs[j].Text
	})
	for _, s := range srcs {
		fmt.Fprintf(h, "\nsrc %d %d\n", len(s.Name), len(s.Text))
		io.WriteString(h, s.Name)
		io.WriteString(h, s.Text)
	}

	abi := cfg.ABI
	if abi == "" {
		abi = "lp64"
	}
	o := cfg.Options
	fmt.Fprintf(h, "\ncfg %s %s %t %t %t %t %t",
		cfg.Strategy, abi,
		o.ModelMainArgs, o.NoLibSummaries, o.CloneAllocWrappers, o.NoPtrArithSmear, o.FlagMisuse)
	fmt.Fprintf(h, "\nlim %d %d %d", cfg.Limits.MaxSteps, cfg.Limits.MaxFacts, cfg.Limits.MaxCells)

	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether s has the shape of a Key result (64 hex digits).
// The server rejects malformed keys before they reach the spill directory's
// file namespace.
func ValidKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}
