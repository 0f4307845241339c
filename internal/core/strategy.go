package core

// Pluggable crack strategies (Halim, Idreos, Karras & Yap, "Stochastic
// Database Cracking", VLDB 2012). The paper's standard crack-in-two/-three
// degenerates to quadratic total work under sequential or skewed query
// sequences: every new cut lands right next to the previous one, so each
// query re-partitions the entire uncracked remainder. Stochastic variants
// inject auxiliary, data-driven cuts that keep halving oversized pieces
// regardless of where the workload steers the query bounds.
//
// The hook is deliberately small: whenever Select must open a new cut
// inside a piece, the column repeatedly asks its strategy what to do.
// The strategy may answer "crack this auxiliary pivot first" (the piece
// narrows, the strategy is consulted again) or "proceed with the query
// cut", optionally leaving the query cut unregistered (MDD1R). The nil
// strategy is standard cracking: the column's native kernels, including
// the crack-in-three fast path, run untouched.
//
// Implementations are consulted only while the column's write lock is
// held, so they need no internal synchronization — but a strategy
// instance must not be shared between columns (its RNG would race).
// Use WithStrategyFactory to hand each column a fresh instance.

// CrackStrategy decides where physical reorganization happens when a
// query opens a new cut. See internal/strategy for implementations.
type CrackStrategy interface {
	// Name identifies the strategy in figures and bench labels.
	Name() string

	// AdviseCut is called while the cut (pc.Val, pc.Incl) is being
	// installed into the piece pc.[Lo, Hi). Returning HasPivot cracks
	// the piece at the auxiliary pivot first (the cut is registered in
	// the cracker index) and re-consults with the narrowed piece and
	// Depth+1. Returning !HasPivot ends the consultation; RegisterQuery
	// then decides whether the query cut itself is remembered in the
	// index or only partitions the piece to answer this one query.
	AdviseCut(pc PieceContext) CutPlan
}

// CutPlan is one step of a strategy's answer.
//
// RegisterQuery=false weakens Select's View contract: the returned
// window's boundaries are then not cuts in the cracker index, so the
// next query on the column may re-partition across them. Count,
// SelectCopy, Project and batches consume the window under the lock
// that produced it (Column.answer); a caller holding a View must consume
// it before the next query or use SelectCopy (Store.Select does).
type CutPlan struct {
	Pivot         int64 // auxiliary pivot value, cracked as the cut "< Pivot"
	HasPivot      bool  // false: stop advising, install the query cut
	RegisterQuery bool  // with HasPivot=false: remember the query cut?
}

// PieceContext describes the piece a pending cut falls into. It is only
// valid for the duration of one AdviseCut call (the column's write lock
// is held); implementations must not retain it.
type PieceContext struct {
	Lo, Hi int   // piece bounds [Lo, Hi) in the column
	N      int   // total column cardinality
	Val    int64 // the query bound being installed
	Incl   bool  // cut inclusivity (partition <= Val / > Val when true)
	Depth  int   // auxiliary cracks already applied for this bound

	vals  []int64     // the full value vector the piece indexes into
	touch func(int64) // charges tuples the strategy inspects; may be nil
}

// Size returns the piece width.
func (pc PieceContext) Size() int { return pc.Hi - pc.Lo }

// ValueAt returns the element at absolute position i, Lo <= i < Hi.
// Sampling piece elements is how data-driven strategies pick pivots that
// provably respect the global cut invariant: any value drawn from inside
// the piece sorts between the piece's bounding cuts.
func (pc PieceContext) ValueAt(i int) int64 { return pc.vals[i] }

// MinMax scans the piece for its value extremes, charging the touched
// tuples to the owner's work counters (the scan is real work the
// strategy causes, and the figures plot it).
func (pc PieceContext) MinMax() (int64, int64) {
	if pc.Lo >= pc.Hi {
		return 0, 0
	}
	mn, mx := pc.vals[pc.Lo], pc.vals[pc.Lo]
	for _, v := range pc.vals[pc.Lo+1 : pc.Hi] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if pc.touch != nil {
		pc.touch(int64(pc.Hi - pc.Lo))
	}
	return mn, mx
}

// WithStrategy sets the column's crack strategy. The column takes
// ownership: the instance must not be shared with any other column
// (strategies carry per-instance RNG state that is only guarded by this
// column's lock). A nil strategy selects standard cracking.
func WithStrategy(s CrackStrategy) Option {
	return func(c *Column) { c.strategy = s }
}

// WithStrategyFactory sets the crack strategy from a factory invoked
// once per column with the column's name, so one Option value can safely
// configure many columns (CrackedTable applies the same option list to
// every column it creates) and derive each one's seed from what the
// column is rather than from when it was created. A nil factory, or a
// factory returning nil, selects standard cracking.
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
	if c.strategy == nil {
		return "standard"
	}
	return c.strategy.Name()
}

// SwapStrategy replaces the column's crack strategy at runtime. swap
// receives the outgoing strategy (nil for standard) and returns its
// replacement, computed and installed under the column's write lock so
// RNG state can be handed off atomically with the swap — no select can
// consult a half-replaced strategy. The swap is safe at any moment:
// strategies only influence *future* pivot advice (selectLocked and
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
// full binary descent of the int64 domain; hitting the cap falls back to
// registering the query cut, which is always correct.
const maxAuxCracksPerCut = 64

// adviseLocked runs the strategy consultation loop for the pending cut
// (val, incl) and reports whether the query cut should be registered.
// Each advised pivot is cracked as a registered exclusive cut. A
// degenerate pivot — one that already exists as a cut, or fails to
// narrow the bound's piece (duplicate-heavy data) — ends the loop with
// one final consultation at the depth cap: a strategy that withholds
// query-cut registration (MDD1R) answers that consultation with its
// no-register verdict, keeping its index free of workload-chosen
// bounds, while a strategy that would just advise more pivots falls
// back to standard registration, which is always correct. The caller
// holds the write lock.
func (c *Column) adviseLocked(val int64, incl bool) bool {
	c.touched = true // a consultation may draw from the strategy's RNG
	for depth := 0; depth < maxAuxCracksPerCut; depth++ {
		lo, hi := c.pieceBounds(val, incl)
		if hi-lo < c.minPieceSize {
			// Below the column's cut-off granularity no cut — auxiliary
			// or query — can register, so consulting the strategy could
			// only buy wasted partition passes. Standard cut-off
			// semantics apply.
			return true
		}
		plan := c.strategy.AdviseCut(PieceContext{
			Lo: lo, Hi: hi, N: len(c.vals), Val: val, Incl: incl, Depth: depth,
			vals: c.vals, touch: c.touchTuples,
		})
		if !plan.HasPivot {
			return plan.RegisterQuery
		}
		progressed := false
		if _, exists := c.idx.Find(plan.Pivot, false); !exists {
			c.cutRaw(plan.Pivot, false, true)
			c.stats.auxCracks.Add(1)
			nlo, nhi := c.pieceBounds(val, incl)
			progressed = nhi-nlo < hi-lo
		}
		if !progressed {
			final := c.strategy.AdviseCut(PieceContext{
				Lo: lo, Hi: hi, N: len(c.vals), Val: val, Incl: incl,
				Depth: maxAuxCracksPerCut, vals: c.vals, touch: c.touchTuples,
			})
			if !final.HasPivot {
				return final.RegisterQuery
			}
			return true
		}
	}
	return true
}
