// Package strategy implements pluggable crack strategies for core
// columns, after Halim, Idreos, Karras & Yap, "Stochastic Database
// Cracking: Towards Robust Adaptive Indexing in Main-Memory
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
//   - Standard: the column's native kernels (exposed as the nil
//     strategy so the crack-in-three fast path stays untouched);
//   - DDR (data-driven random): recursively halve an oversized piece at
//     the value of a uniformly sampled element until the piece holding
//     the query bound is small, then cut at the bound as usual. Every
//     query cut is registered, so a repeated range cracks nothing.
//
// Halim et al.'s centre-pivot variant (a min/max scan picks each
// halving pivot) and its one-random-cut variant that never registers
// the query's own cuts are not kept: on every workload pattern DDR
// touched fewer tuples than both, and the unregistered variant cracks
// every repeated range again (DESIGN.md, "Crack strategies").
//
// DDR draws from an explicit seeded generator —
// never the math/rand globals — so figures and benchmarks are
// reproducible run to run. The generator is a splitmix64 stream whose
// entire state is one exportable word, so the durability subsystem can
// round-trip it (Export / Restore): a warm-reopened column continues the
// exact pivot sequence the pre-shutdown column would have drawn, instead
// of re-seeding and diverging. Instances must not be shared across
// columns: the RNG is guarded only by the owning column's write lock.
// Create one instance per column (strategy.New per column, or
// core.WithStrategyFactory at table level).
package strategy

import (
	"fmt"
	"strings"

	"crackdb/internal/core"
)

// prng is a splitmix64 pseudo-random stream. Unlike rand.Rand its whole
// state is a single word, exported verbatim into core.StrategyState and
// restored by Restore — serializability is the reason it exists.
type prng struct {
	state uint64
}

func newPRNG(seed int64) *prng { return &prng{state: uint64(seed)} }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). The modulo bias is
// immaterial for pivot sampling (n ≪ 2⁶⁴).
func (p *prng) Intn(n int) int {
	if n <= 0 {
		panic("strategy: Intn on non-positive n")
	}
	return int(p.next() % uint64(n))
}

// DefaultMinPiece is the piece size below which the stochastic
// strategies stop injecting auxiliary cuts. Halim et al. stop cracking
// around the L1/L2 boundary; 2048 int64s (16 KiB) sits there on current
// hardware.
const DefaultMinPiece = 2048

// Standard returns the standard-cracking strategy. It is nil by design:
// core treats a nil strategy as "use the native kernels", keeping the
// crack-in-two/-three fast paths byte-identical to a column that never
// heard of strategies.
func Standard() core.CrackStrategy { return nil }

// DDR recursively cracks an oversized piece at the value of a uniformly
// sampled element before installing the query cut. Sampling needs no
// scan of the piece, at the cost of less balanced splits than a
// midpoint pivot.
type DDR struct {
	minPiece int
	rng      *prng
}

// NewDDR returns a DDR strategy with its own seeded RNG;
// minPiece <= 0 selects DefaultMinPiece.
func NewDDR(minPiece int, seed int64) *DDR {
	if minPiece <= 0 {
		minPiece = DefaultMinPiece
	}
	return &DDR{minPiece: minPiece, rng: newPRNG(seed)}
}

// Name implements core.CrackStrategy.
func (d *DDR) Name() string { return "ddr" }

// Export implements core.StatefulStrategy.
func (d *DDR) Export() core.StrategyState {
	return core.StrategyState{Name: "ddr", MinPiece: d.minPiece, RNG: d.rng.state}
}

// AdviseCut implements core.CrackStrategy.
func (d *DDR) AdviseCut(pc core.PieceContext) core.CutPlan {
	if pc.Size() <= d.minPiece {
		return core.CutPlan{}
	}
	pivot := pc.ValueAt(pc.Lo + d.rng.Intn(pc.Size()))
	return core.CutPlan{Pivot: pivot, HasPivot: true}
}

// Names lists the registered strategy names in presentation order.
func Names() []string { return []string{"standard", "ddr"} }

// New builds a fresh strategy instance by name. "standard" (and "")
// returns nil — core's native path. The seed feeds the instance's
// private RNG; equal seeds reproduce identical cut sequences on
// identical data and queries.
func New(name string, seed int64) (core.CrackStrategy, error) {
	switch strings.ToLower(name) {
	case "", "standard", "std":
		return Standard(), nil
	case "ddr":
		return NewDDR(0, seed), nil
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q (want one of %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Handoff builds the strategy `name` to replace `old` on the same
// column, carrying state across the swap: when the outgoing strategy
// owns an RNG, the incoming one resumes that exact stream instead of
// re-seeding — so a run that flips strategies mid-stream is as
// deterministic as a fixed-strategy run, and flipping A→B→A continues
// A's pivot sequence rather than replaying it. When the outgoing
// strategy is stateless (standard), seed seeds the new instance.
// Intended for the tuner's hot swap: call it inside
// core.Column.SwapStrategy so the read-modify-install is atomic under
// the column's write lock.
func Handoff(old core.CrackStrategy, name string, seed int64) (core.CrackStrategy, error) {
	next, err := New(name, seed)
	if err != nil || next == nil {
		return next, err
	}
	if o, ok := old.(*DDR); ok && o.rng.state != 0 {
		if n, ok := next.(*DDR); ok {
			n.rng.state = o.rng.state
		}
	}
	return next, nil
}

// Restore rebuilds a live strategy instance from an exported state: the
// inverse of core.StatefulStrategy.Export, used by the durability
// subsystem on warm reopen. The restored instance continues the exact
// RNG stream the exported one would have drawn next.
func Restore(st core.StrategyState) (core.CrackStrategy, error) {
	switch strings.ToLower(st.Name) {
	case "", "standard", "std":
		return nil, nil
	case "ddr":
		d := NewDDR(st.MinPiece, 0)
		d.rng.state = st.RNG
		return d, nil
	default:
		return nil, fmt.Errorf("strategy: cannot restore unknown strategy %q", st.Name)
	}
}

// Compile-time check: the stateful strategy round-trips.
var _ core.StatefulStrategy = (*DDR)(nil)
