package core

// Crack strategies (Halim, Idreos, Karras & Yap, "Stochastic Database
// Cracking", VLDB 2012). The paper's standard crack-in-two/-three
// degenerates to quadratic total work under sequential or skewed query
// sequences: every new cut lands right next to the previous one, so each
// query re-partitions the entire uncracked remainder. The stochastic
// variant kept here, ddr (data-driven random), injects auxiliary cuts at
// the values of sampled elements, which keep halving oversized pieces
// regardless of where the workload steers the query bounds.
//
// Whenever Select must open a new cut inside a piece wider than the
// strategy's MinPiece, the column cracks that piece at the value of one
// uniformly sampled element first, and repeats with the narrowed piece;
// then the query cut is installed and registered like any other. The
// zero strategy is standard cracking: the column's native kernels,
// including the crack-in-three fast path, run untouched.
//
// The RNG word advances only while the column's write lock is held.
// internal/strategy names, validates and hands over strategies.

// CrackStrategy is a column's crack strategy, and also what an image
// stores of it. The zero value is standard cracking; Name "ddr" samples
// auxiliary pivots from a splitmix64 stream whose whole state is RNG, so
// a column exported mid-stream and restored continues the exact pivot
// sequence instead of re-seeding.
type CrackStrategy struct {
	Name     string // "" or "standard": the native kernels
	MinPiece int    // pieces at most this wide take no auxiliary cut
	RNG      uint64 // the splitmix64 state word
}

// advises reports whether the strategy injects auxiliary cuts.
func (s CrackStrategy) advises() bool { return s.Name == "ddr" }

// draw advances the splitmix64 stream one step and returns a position in
// [0, n). The modulo bias is immaterial for pivot sampling (n ≪ 2⁶⁴).
func (s *CrackStrategy) draw(n int) int {
	s.RNG += 0x9e3779b97f4a7c15
	z := s.RNG
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// WithStrategy sets the column's crack strategy.
func WithStrategy(s CrackStrategy) Option {
	return func(c *Column) { c.strategy = s }
}

// WithStrategyFactory sets the crack strategy from a factory invoked
// once per column with the column's name, so one Option value can
// configure many columns (CrackedTable applies the same option list to
// every column it creates) and derive each one's seed from what the
// column is rather than from when it was created. A nil factory selects
// standard cracking.
func WithStrategyFactory(f func(name string) CrackStrategy) Option {
	return func(c *Column) {
		if f != nil {
			c.strategy = f(c.name)
		}
	}
}

// StrategyName reports the column's crack strategy ("standard" for the
// native kernels).
func (c *Column) StrategyName() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.strategy.Name == "" {
		return "standard"
	}
	return c.strategy.Name
}

// SwapStrategy replaces the column's crack strategy at runtime. swap
// receives the outgoing strategy and returns its replacement, computed
// and installed under the column's write lock so the RNG word can be
// handed off atomically with the swap. The swap is safe at any moment:
// a strategy only influences *future* pivots (selectLocked and
// adviseLocked run under this same lock, and the optimistic read path
// never consults the strategy), so every cut already registered — and
// therefore every result — is exactly what a fixed-strategy run would
// have produced.
func (c *Column) SwapStrategy(swap func(old CrackStrategy) CrackStrategy) {
	if swap == nil {
		return
	}
	c.mu.Lock()
	c.strategy = swap(c.strategy)
	c.touched = true
	c.mu.Unlock()
}

// maxAuxCracksPerCut bounds one bound's consultation loop. 64 covers a
// full binary descent of the int64 domain.
const maxAuxCracksPerCut = 64

// adviseLocked runs the auxiliary cuts for the pending cut (val, incl):
// while the piece it falls into is wider than MinPiece, the piece is
// cracked as a registered exclusive cut at the value of one uniformly
// sampled element, which sorts between the piece's bounding cuts. A
// degenerate pivot — one that already exists as a cut, or fails to
// narrow the bound's piece (duplicate-heavy data) — ends the loop, and
// so does the depth cap; the caller then installs the query cut. The
// caller holds the write lock.
func (c *Column) adviseLocked(val int64, incl bool) {
	c.touched = true // the pivot draws move the RNG word
	for depth := 0; depth < maxAuxCracksPerCut; depth++ {
		lo, hi := c.pieceBounds(val, incl)
		if hi-lo <= c.strategy.MinPiece {
			return
		}
		pivot := c.vals[lo+c.strategy.draw(hi-lo)]
		if _, exists := c.idx.Find(pivot, false); exists {
			return
		}
		c.cut(pivot, false)
		c.stats.auxCracks.Add(1)
		if nlo, nhi := c.pieceBounds(val, incl); nhi-nlo >= hi-lo {
			return
		}
	}
}
