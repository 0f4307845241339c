// Package strategy names, validates and hands over the crack strategies
// of core columns, after Halim, Idreos, Karras & Yap, "Stochastic
// Database Cracking: Towards Robust Adaptive Indexing in Main-Memory
// Column-Stores" (VLDB 2012), and Bhardwaj & Chugh's follow-up
// optimization study.
//
// Standard cracking cuts exactly where the queries point. Under a
// sequential (or otherwise adversarial) workload every new bound lands
// right next to the previous cut, each query re-partitions the whole
// uncracked remainder, and the total work degenerates to quadratic.
// A stochastic strategy injects auxiliary data-driven cuts so piece
// sizes keep shrinking no matter where the workload steers the bounds:
//
//   - standard: the column's native kernels (the zero core.CrackStrategy,
//     so the crack-in-three fast path stays untouched);
//   - ddr (data-driven random): recursively halve an oversized piece at
//     the value of a uniformly sampled element until the piece holding
//     the query bound is small, then cut at the bound as usual. Every
//     query cut is registered, so a repeated range cracks nothing.
//
// Halim et al.'s centre-pivot variant (a min/max scan picks each
// halving pivot) and its one-random-cut variant that never registers
// the query's own cuts are not kept: on every workload pattern ddr
// touched fewer tuples than both, and the unregistered variant cracks
// every repeated range again (DESIGN.md, "Crack strategies").
//
// A strategy is a value (core.CrackStrategy) whose pivot draws come from
// an explicit seeded splitmix64 stream — never the math/rand globals —
// so figures and benchmarks are reproducible run to run. The stream's
// whole state is one word that a column image stores, so a
// warm-reopened column continues the exact pivot sequence the
// pre-shutdown column would have drawn, instead of re-seeding and
// diverging.
package strategy

import (
	"fmt"
	"strings"

	"crackdb/internal/core"
)

// defaultMinPiece is the piece size below which ddr stops injecting
// auxiliary cuts. Halim et al. stop cracking around the L1/L2 boundary;
// 2048 int64s (16 KiB) sits there on current hardware.
const defaultMinPiece = 2048

// Names lists the registered strategy names in presentation order.
func Names() []string { return []string{"standard", "ddr"} }

// New builds the strategy `name` with its RNG seeded by seed. "standard"
// (and "", "std") is the zero value — core's native path. Equal seeds
// reproduce identical cut sequences on identical data and queries.
func New(name string, seed int64) (core.CrackStrategy, error) {
	switch strings.ToLower(name) {
	case "", "standard", "std":
		return core.CrackStrategy{}, nil
	case "ddr":
		return core.CrackStrategy{Name: "ddr", MinPiece: defaultMinPiece, RNG: uint64(seed)}, nil
	default:
		return core.CrackStrategy{}, fmt.Errorf("strategy: unknown strategy %q (want one of %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Handoff builds the strategy `name` to replace `old` on the same
// column, carrying state across the swap: when the outgoing strategy
// has a nonzero RNG word, the incoming ddr resumes that exact stream
// instead of re-seeding — so a run that flips strategies mid-stream is
// as deterministic as a fixed-strategy run, and flipping A→B→A
// continues A's pivot sequence rather than replaying it. Otherwise seed
// seeds it. Intended for the tuner's hot swap: call it inside
// core.Column.SwapStrategy so the read-modify-install is atomic under
// the column's write lock.
func Handoff(old core.CrackStrategy, name string, seed int64) (core.CrackStrategy, error) {
	next, err := New(name, seed)
	if err == nil && next.Name == "ddr" && old.Name == "ddr" && old.RNG != 0 {
		next.RNG = old.RNG
	}
	return next, err
}

// Restore validates the strategy a column image stored and returns it
// with its name canonical and a missing cut-off defaulted; its RNG word
// is kept, so the column continues the exact stream it was exported in.
func Restore(st core.CrackStrategy) (core.CrackStrategy, error) {
	s, err := New(st.Name, int64(st.RNG))
	if err != nil {
		return s, fmt.Errorf("strategy: cannot restore unknown strategy %q", st.Name)
	}
	if s.Name == "ddr" && st.MinPiece > 0 {
		s.MinPiece = st.MinPiece
	}
	return s, nil
}
