package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
	"crackdb/internal/obs"
)

// columnIDs hands out the monotonically-increasing identity every Column
// gets at construction. JoinCrack orders its two locks by this ID, so
// concurrent join cracks over any set of columns cannot deadlock.
var columnIDs atomic.Uint64

// Column is a cracker column: a copy of one attribute vector, aligned
// with the surrogate OIDs of its tuples, that is physically reorganized
// as a side effect of every selection it answers (paper §2: "every query
// is first analyzed for its contribution to break the database into
// multiple pieces"). The cracker index records the accumulated cuts.
//
// All exported methods are safe for concurrent use. Cracking serializes
// on an internal RWMutex, standing in for MonetDB's reliance on its
// memory manager for transaction isolation during the in-place shuffle
// (§3.4.2) — but reads that do not need to reorganize anything (both cuts
// already registered, no pending updates) run under the read lock only,
// so a converged column serves lookups from many goroutines in parallel.
// DESIGN.md (Concurrency) documents the protocol.
type Column struct {
	mu   sync.RWMutex
	id   uint64 // stable lock-ordering identity (see lockPair)
	name string

	vals []int64    // the cracked value vector
	oids []bat.OID  // oids[i] is the tuple identity of vals[i]
	pays []*payload // sideways payload vectors aligned with vals (payload.go)

	idx *Index
	// lin is nil while the lineage is stale — after a fold moved the
	// positions it records, or on a restored column — and is re-rooted
	// from the index when somebody looks (lineageLocked); reroot says why.
	lin    *Lineage
	reroot string

	// strategy, when it advises (ddr), injects auxiliary cuts whenever
	// Select must open a new cut (see strategy.go). The zero value is
	// standard cracking: the native crack-in-two/-three, unmodified.
	strategy CrackStrategy

	forceFold foldKind // test hook: pin the update fold (see update.go)

	nextOID bat.OID
	pending []pendingInsert
	deleted map[bat.OID]struct{}

	// Write-back marks since the last TakeState (export.go): dirty holds
	// the granules the column wrote, touched says that something else a
	// record carries — length, next OID, pending inserts, deletes,
	// strategy state, payload names — may have moved. The index notes its
	// own cut changes (Index.changed).
	dirty   granules
	touched bool

	stats counters

	// instr, when non-nil, carries the observability hooks (latency
	// histograms, crack-event trace; see instr.go). Atomic so it can be
	// attached to a live column without touching the column lock; the
	// nil fast path costs one load and a branch.
	instr atomic.Pointer[Instr]
}

type pendingInsert struct {
	oid bat.OID
	row uint32 // position in the pending queue, where payloads keep this insert's values
	val int64
}

// Stats counts the physical work a column has absorbed. TuplesMoved is
// the number of element writes performed by crack partitioning — the
// quantity Figure 2 plots — and by update folds; TuplesTouched the
// tuples of the pieces cracks covered, each crack's once. Add and Sub
// are the only code that combines counters field by field: every total
// and difference goes through them, and TestStatsArithmetic fails when
// a field is missing from them.
type Stats struct {
	Queries        int
	Cracks         int   // partition passes executed
	AuxCracks      int   // strategy-advised auxiliary cracks (subset of Cracks)
	IndexLookups   int   // cut lookups answered without cracking
	TuplesMoved    int64 // element writes during partitioning and folding; a sort N log N
	TuplesTouched  int64 // tuples of the pieces cracks covered, each crack's once; a sort N log N
	Consolidations int   // pending-update folds: RippleFolds + RebuildFolds
	RippleFolds    int   // folds that kept the index
	RebuildFolds   int   // folds that dropped it
	CutsShifted    int64 // cut positions rewritten by folds
	PaysDropped    int   // payload vectors a reorganization could not carry (payload.go)
	Folded         int64 // pending inserts and deletes that folds applied

	// GranulesDirtied counts granules marked for write-back (granule.go):
	// a granule counts once between two image elements, however often it
	// is written.
	GranulesDirtied int64
}

// Add returns the field-by-field sum of s and o.
func (s Stats) Add(o Stats) Stats { return s.plus(o, 1) }

// Sub returns the field-by-field difference s - o: the work done between
// two snapshots of one column.
func (s Stats) Sub(o Stats) Stats { return s.plus(o, -1) }

func (s Stats) plus(o Stats, sign int) Stats {
	s.Queries += sign * o.Queries
	s.Cracks += sign * o.Cracks
	s.AuxCracks += sign * o.AuxCracks
	s.IndexLookups += sign * o.IndexLookups
	s.TuplesMoved += int64(sign) * o.TuplesMoved
	s.TuplesTouched += int64(sign) * o.TuplesTouched
	s.Consolidations += sign * o.Consolidations
	s.RippleFolds += sign * o.RippleFolds
	s.RebuildFolds += sign * o.RebuildFolds
	s.CutsShifted += int64(sign) * o.CutsShifted
	s.PaysDropped += sign * o.PaysDropped
	s.Folded += int64(sign) * o.Folded
	s.GranulesDirtied += int64(sign) * o.GranulesDirtied
	return s
}

// counters is the internal, atomically-updated form of Stats. Atomics let
// the optimistic read path account its queries and index lookups while
// holding only the read lock.
type counters struct {
	queries       atomic.Int64
	cracks        atomic.Int64
	auxCracks     atomic.Int64
	indexLookups  atomic.Int64
	tuplesMoved   atomic.Int64
	tuplesTouched atomic.Int64
	rippleFolds   atomic.Int64
	rebuildFolds  atomic.Int64
	cutsShifted   atomic.Int64
	paysDropped   atomic.Int64
	folded        atomic.Int64

	granulesDirtied atomic.Int64
}

func (s *counters) snapshot() Stats {
	st := Stats{
		Queries:       int(s.queries.Load()),
		Cracks:        int(s.cracks.Load()),
		AuxCracks:     int(s.auxCracks.Load()),
		IndexLookups:  int(s.indexLookups.Load()),
		TuplesMoved:   s.tuplesMoved.Load(),
		TuplesTouched: s.tuplesTouched.Load(),
		RippleFolds:   int(s.rippleFolds.Load()),
		RebuildFolds:  int(s.rebuildFolds.Load()),
		CutsShifted:   s.cutsShifted.Load(),
		PaysDropped:   int(s.paysDropped.Load()),
		Folded:        s.folded.Load(),

		GranulesDirtied: s.granulesDirtied.Load(),
	}
	st.Consolidations = st.RippleFolds + st.RebuildFolds
	return st
}

// Option configures a Column.
type Option func(*Column)

// NewColumn builds a cracker column from a raw value vector. The i-th
// value receives OID i. The vector is copied: the base table stays
// untouched while the cracker copy is shuffled.
func NewColumn(name string, vals []int64, opts ...Option) *Column {
	c := &Column{
		id:      columnIDs.Add(1),
		name:    name,
		vals:    append([]int64(nil), vals...),
		oids:    make([]bat.OID, len(vals)),
		idx:     &Index{},
		lin:     NewLineage(name),
		nextOID: bat.OID(len(vals)),
		deleted: make(map[bat.OID]struct{}),
	}
	for i := range c.oids {
		c.oids[i] = bat.OID(i)
	}
	c.lin.Root(0, len(vals))
	c.markWholeLocked() // no image holds the column yet
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Len returns the number of live values (including pending inserts).
func (c *Column) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.vals) + len(c.pending) - len(c.deleted)
}

// Pieces returns the current number of pieces the column is cracked into.
func (c *Column) Pieces() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.Len() + 1
}

// Stats returns a snapshot of the accumulated work counters.
//
// Reset semantics: the counters live in process memory only. They are
// not part of the durable crack-state snapshot, so a column restored on
// warm reopen starts every counter at zero — a rate computed across a
// restart reads as a workload drop unless the discontinuity is
// accounted for. The obs layer exposes restarts_total and
// store_uptime_seconds for exactly that correction.
func (c *Column) Stats() Stats { return c.stats.snapshot() }

// Lineage returns the lineage DAG (rendered by Store.Lineage), brought up
// to date with every crack registered so far.
func (c *Column) Lineage() *Lineage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lineageLocked()
}

// lineageLocked brings the lineage up to date: a stale one is re-rooted
// flat — one root cracked into the pieces the index has now, the crack
// order being history the moved positions no longer describe — and the
// logged cracks are folded in.
func (c *Column) lineageLocked() *Lineage {
	if c.lin == nil {
		c.lin = NewLineage(c.name)
		root := c.lin.Root(0, len(c.vals))
		if pieces := c.idx.Pieces(len(c.vals)); len(pieces) > 1 {
			c.lin.Crack(root, "Ξ", c.reroot, pieces...)
		}
	}
	c.lin.fold()
	return c.lin
}

// Index exposes the cracker index for inspection (tests, ablations).
func (c *Column) Index() *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx
}

// View is a zero-copy window [Lo, Hi) over a cracker column: the answer
// of a cracked selection, equivalent to a MonetDB BAT view over the
// consecutive matching area.
type View struct {
	col    *Column
	Lo, Hi int
}

// Len returns the number of tuples in the view.
func (v View) Len() int { return v.Hi - v.Lo }

// Values returns the value window. Callers must treat it as read-only;
// it aliases the column until the next crack touches the region. Under
// concurrent cracking use Column.SelectCopy instead.
func (v View) Values() []int64 {
	if v.col == nil {
		return nil
	}
	return v.col.vals[v.Lo:v.Hi:v.Hi]
}

// OIDs returns the tuple identities in the view (aliased, read-only).
func (v View) OIDs() []bat.OID {
	if v.col == nil {
		return nil
	}
	return v.col.oids[v.Lo:v.Hi:v.Hi]
}

// Range is the one form a range predicate takes below the entries that
// accept per-bound inclusivity: the inclusive interval Low <= attr <=
// High over the integers, empty when Low > High. Its cuts are Low —
// left of it lies what is below Low — and High+1 — left of it lies what
// is at most High. So a boundary has one cut however a query spells it:
// < 100 and <= 99 are one cut, and adjacent ranges [a, b] and [b+1, c]
// share b+1. A MaxInt64 High is the column's end and has no cut, so
// High+1 does not overflow where it is used.
type Range struct {
	Low, High int64
}

// Inclusive folds the predicate low θ attr θ high, each bound inclusive
// or not, into the Range it admits: an exclusive bound steps one value
// inward. An exclusive MaxInt64 low or MinInt64 high admits nothing and
// folds to the empty range [1, 0]. It is the one place inclusivity is
// folded; every read below takes the Range.
func Inclusive(low, high int64, lowIncl, highIncl bool) Range {
	if !lowIncl {
		if low == math.MaxInt64 {
			return Range{Low: 1, High: 0}
		}
		low++
	}
	if !highIncl {
		if high == math.MinInt64 {
			return Range{Low: 1, High: 0}
		}
		high--
	}
	return Range{Low: low, High: high}
}

// inclusiveOf folds an expr.Range (Inclusive).
func inclusiveOf(r expr.Range) Range { return Inclusive(r.Low, r.High, r.LowIncl, r.HighIncl) }

// Select answers the range query low θ_lo attr θ_hi high by cracking —
// the Ξ operator of §3.1. The result is a contiguous window of the
// column; pieces at the predicate boundaries are cracked as a byproduct,
// so the same range (and every sub-range) is answered by pure index
// lookups afterwards.
func (c *Column) Select(low, high int64, lowIncl, highIncl bool) View {
	var v View
	c.answer([]Range{Inclusive(low, high, lowIncl, highIncl)}, true, func(_ int, w View) { v = w }, nil)
	return v
}

// Count returns the number of qualifying tuples; cracking still happens
// (the query is also advice), but no result is materialized, matching the
// paper's observation that count-only queries need no fragment storage.
func (c *Column) Count(low, high int64, lowIncl, highIncl bool) int {
	n := 0
	c.answer([]Range{Inclusive(low, high, lowIncl, highIncl)}, true, func(_ int, w View) { n = w.Len() }, nil)
	return n
}

// SelectCopy answers like Select but returns copies of the qualifying
// values and OIDs, taken while the column lock is still held. This is
// the safe form under concurrent cracking: a View's windows alias the
// column and may be shuffled by cracks that run after Select returns.
func (c *Column) SelectCopy(low, high int64, lowIncl, highIncl bool) (vals []int64, oids []bat.OID) {
	return c.selectCopy(Inclusive(low, high, lowIncl, highIncl), nil)
}

// selectCopy is SelectCopy of r, showing observe (when non-nil) r once
// it is answered (answer).
func (c *Column) selectCopy(r Range, observe func(Range)) (vals []int64, oids []bat.OID) {
	c.answer([]Range{r}, true, func(_ int, w View) {
		vals, oids = append([]int64(nil), w.Values()...), append([]bat.OID(nil), w.OIDs()...)
	}, observe)
	return vals, oids
}

// answer is the lock protocol every read of ranges on the column runs,
// one range or a batch, in submission order. It alternates two holds:
// one read hold answers the longest run of ranges the index resolves
// (readHold), so concurrent lookups proceed in parallel, and the range
// that ends the run — a cut missing, or updates pending — folds and
// cracks under the write lock (crackLocked). A batch therefore leaves
// the column exactly as its ranges answered one by one would: the same
// answers and counters, the same cuts, in the same order, with the same
// strategy consulted for each. use receives each range's index and
// answer window while the lock that makes the window valid is still
// held, and must not take c.mu; observe, when non-nil, sees each range
// once it is answered, outside the column lock.
//
// With write false the ranges are offered to one read hold only: answer
// answers when the index resolves every range, and otherwise declines —
// it returns false having changed nothing, not a counter, not a timing,
// and observe does not run (use may have seen a prefix of the ranges,
// which the caller drops). It reports whether the ranges were answered.
//
// Instrumentation off costs one atomic load and a branch. On, a call of
// two or more ranges is one Batch observation, the whole call. A
// one-range call answered under the read hold is timed into ReadHold,
// hold and use included, when it wins the sampling gate; the unsampled
// 255-in-256 converged lookups read no clock. Every write hold is
// observed (crackLocked); a decline is not.
func (c *Column) answer(ranges []Range, write bool, use func(int, View), observe func(Range)) bool {
	in := c.instr.Load()
	var hold, whole *obs.Histogram
	switch {
	case in == nil:
	case len(ranges) > 1:
		whole = in.Batch
	case in.SampleMask == 0 || uint64(c.stats.queries.Load())&in.SampleMask == 0:
		hold = in.ReadHold
	}
	var t0 time.Time
	if hold != nil || whole != nil {
		t0 = time.Now()
	}
	for i, n := 0, 0; i < len(ranges); i += n {
		n = c.readHold(ranges[i:], i, write, use)
		switch {
		case n > 0 && hold != nil:
			hold.Observe(time.Since(t0).Nanoseconds())
		case n == 0 && !write:
			return false
		case n == 0:
			c.mu.Lock()
			use(i, c.crackLocked(in, ranges[i]))
			c.mu.Unlock()
			n = 1
		}
		if observe != nil {
			for _, r := range ranges[i : i+n] {
				observe(r)
			}
		}
	}
	if whole != nil {
		whole.Observe(time.Since(t0).Nanoseconds())
	}
	return true
}

// readHold answers under one read hold the longest run at the front of
// ranges that the index resolves, handing use each range's window (its
// index offset by from), and returns the run's length. Nothing needs to
// move to answer them. It probes a group of probeGroup ranges at a time,
// so the group's table misses overlap, except that a hold past the
// first range (from > 0), which follows a crack or a range it found
// unresolved, probes one range first: in a batch that cracks range
// after range, as a cold one does, a full group would read the cuts of
// seven ranges that the next hold reads again. A group of one range,
// a scalar read's, takes two Finds (probe). It counts the run's
// queries and index lookups once. A column with pending inserts or
// deletes answers none: the next range folds them under the write lock.
//
// With write false the run must be all of ranges: a shorter one counts
// nothing and reads 0. Such an offer also probes one range first, so on
// a column that has not converged it declines after one probe.
func (c *Column) readHold(ranges []Range, from int, write bool, use func(int, View)) int {
	c.mu.RLock()
	var win [probeGroup]window
	done, lookups, size := 0, 0, probeGroup
	if from > 0 || !write {
		size = 1
	}
run:
	for done < len(ranges) && len(c.pending) == 0 && len(c.deleted) == 0 {
		g := ranges[done:min(done+size, len(ranges))]
		size = probeGroup
		if len(g) == 1 { // two cuts: the group's bookkeeping costs more than the overlap saves
			win[0] = c.probe(g[0])
		} else {
			c.probeRanges(g, win[:])
		}
		for _, w := range win[:len(g)] {
			if !w.resolved() {
				break run
			}
			if !w.empty {
				lookups += 2
			}
			use(from+done, View{col: c, Lo: w.lo, Hi: w.hi})
			done++
		}
	}
	if done < len(ranges) && !write {
		done = 0
	}
	if done > 0 {
		c.stats.queries.Add(int64(done))
		c.stats.indexLookups.Add(int64(lookups))
	}
	c.mu.RUnlock()
	return done
}

// crackLocked answers one range under the write lock — fold and cracks,
// both in selectLocked — and, instrumented, observes the hold and
// records its CrackEvent. Cracking is observed sampled or not: write
// holds are microseconds, the timing is noise there.
func (c *Column) crackLocked(in *Instr, r Range) View {
	if in == nil {
		return c.selectLocked(r)
	}
	hs := c.beginWriteHoldLocked()
	v := c.selectLocked(r)
	c.finishWriteHold(in, hs, r)
	return v
}

// A window is a range resolved against the cracker index: its answer is
// [lo, hi) once both are resolved; -1 marks a cut the index does not hold
// yet. An empty range is the empty window at 0.
type window struct {
	lo, hi int
	empty  bool
}

func (w window) resolved() bool { return w.lo >= 0 && w.hi >= 0 }

// open sets up r's window before any lookup: an empty range resolves to
// the empty window at 0, and a cut at a domain extreme is trivial —
// nothing is below the minimum or above the maximum — and needs no
// index entry. Every other cut is left for the index: the lower one at
// r.Low, the upper one at r.High+1.
func (c *Column) open(r Range) window {
	if r.Low > r.High {
		return window{empty: true}
	}
	w := window{lo: -1, hi: -1}
	if r.Low == math.MinInt64 {
		w.lo = 0
	}
	if r.High == math.MaxInt64 {
		w.hi = len(c.vals)
	}
	return w
}

// find is the position of the cut val, -1 when the index does not hold
// it.
func (c *Column) find(val int64) int {
	if pos, ok := c.idx.Find(val); ok {
		return pos
	}
	return -1
}

// probe resolves one range's cuts, one Index.Find each. The caller holds
// c.mu in either mode; nothing is counted. probeRanges resolves a read
// hold's ranges the same way, a group at a time.
func (c *Column) probe(r Range) window {
	w := c.open(r)
	if w.lo < 0 {
		w.lo = c.find(r.Low)
	}
	if w.hi < 0 {
		w.hi = c.find(r.High + 1)
	}
	return w
}

// probeGroup is the most ranges probeRanges resolves at a time: their
// up to 2·probeGroup cuts go to one findGroup.
const probeGroup = 8

// probeRanges resolves each of rs, at most probeGroup ranges, as probe
// would, into win, looking up all of the group's cuts in one findGroup so
// that their cache misses overlap. The caller holds c.mu in either mode;
// nothing is counted.
func (c *Column) probeRanges(rs []Range, win []window) {
	var cuts [2 * probeGroup]int64
	var pos [2 * probeGroup]int
	n := 0
	for i, r := range rs {
		w := &win[i]
		*w = c.open(r)
		if w.lo < 0 {
			cuts[n], n = r.Low, n+1
		}
		if w.hi < 0 {
			cuts[n], n = r.High+1, n+1
		}
	}
	c.idx.findGroup(cuts[:n], pos[:n])
	k := 0
	for i := range rs {
		w := &win[i]
		if w.lo < 0 {
			w.lo, k = pos[k], k+1
		}
		if w.hi < 0 {
			w.hi, k = pos[k], k+1
		}
	}
}

func (c *Column) selectLocked(r Range) View {
	c.consolidateLocked()
	c.stats.queries.Add(1)
	w := c.probe(r)
	if w.resolved() {
		if !w.empty {
			c.stats.indexLookups.Add(2)
		}
		return View{col: c, Lo: w.lo, Hi: w.hi}
	}

	// Strategy consultation: auxiliary data-driven cracks narrow the
	// piece(s) the query bounds land in before the bounds themselves are
	// installed. An aux crack can coincide with a query bound, so
	// re-probe the index after each consultation.
	if c.strategy.advises() {
		if w.lo < 0 {
			c.adviseLocked(r.Low)
			w.lo = c.find(r.Low)
		}
		if w.hi < 0 {
			c.adviseLocked(r.High + 1)
			w.hi = c.find(r.High + 1)
		}
		// Sides resolved here are counted either at this early return or
		// by the per-side accounting below — never both.
		if w.resolved() {
			c.stats.indexLookups.Add(2)
			return View{col: c, Lo: w.lo, Hi: w.hi}
		}
	}

	// Crack-in-three when both cuts are new and land in the same piece:
	// the paper's three-piece Ξ variant for double-sided ranges. Landing
	// in two pieces, each is cracked in two at the bounds found here: the
	// crack at Low moves nothing of High+1's piece, which lies above it.
	if w.lo < 0 && w.hi < 0 {
		lo1, hi1 := c.pieceBounds(r.Low)
		lo2, hi2 := c.pieceBounds(r.High + 1)
		if lo1 == lo2 && hi1 == hi2 {
			m1, m2 := c.crackInThree(lo1, hi1, r.Low, r.High+1)
			return View{col: c, Lo: m1, Hi: m2}
		}
		return View{col: c, Lo: c.cut(r.Low, lo1, hi1), Hi: c.cut(r.High+1, lo2, hi2)}
	}

	if w.lo >= 0 {
		c.stats.indexLookups.Add(1)
	} else {
		lo, hi := c.pieceBounds(r.Low)
		w.lo = c.cut(r.Low, lo, hi)
	}
	if w.hi >= 0 {
		c.stats.indexLookups.Add(1)
	} else {
		lo, hi := c.pieceBounds(r.High + 1)
		w.hi = c.cut(r.High+1, lo, hi)
	}
	return View{col: c, Lo: w.lo, Hi: w.hi}
}

func (c *Column) sortLocked(detail string) {
	c.dropPaysLocked() // the sort permutes two vectors, not k
	sortValsOIDs(c.vals, c.oids)
	c.markWholeLocked()
	c.stats.tuplesMoved.Add(int64(len(c.vals)) * int64(ceilLog2(len(c.vals)))) // N log N write estimate
	c.stats.tuplesTouched.Add(int64(len(c.vals)) * int64(ceilLog2(len(c.vals))))
	c.idx.Reset()
	c.lin = NewLineage(c.name)
	root := c.lin.Root(0, len(c.vals))
	root.Detail = detail
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// pieceBounds returns the piece [lo, hi) the cut val falls into.
func (c *Column) pieceBounds(val int64) (lo, hi int) {
	lo, hi = 0, len(c.vals)
	floor, floorOK, ceil, ceilOK := c.idx.Neighbours(val)
	if floorOK {
		lo = floor.Pos
	}
	if ceilOK {
		hi = ceil.Pos
	}
	return lo, hi
}

// cut partitions the piece [lo, hi) that contains the cut val (what
// pieceBounds(val) returns) at it, registers the cut in the cracker
// index and returns its position.
func (c *Column) cut(val int64, lo, hi int) int {
	m := c.crackInTwo(lo, hi, val)
	c.idx.Insert(val, m)
	if c.lin != nil { // a stale lineage re-roots from the index, which has the cut
		c.lin.log = append(c.lin.log, xiCrack{lo: lo, hi: hi, m1: m, m2: hi, v1: val})
	}
	return m
}

// partition is the one crack loop, the in-place "shuffle-exchange" of
// §3.4.2: it reorders vals[lo:hi) so that the elements < t precede the
// rest and returns the split position m and the element writes it made.
// One comparison per element; a pair is exchanged only when both of its
// tuples are misplaced, so ordered input moves nothing. Payload vectors
// follow through swapPays, behind a flag tested per exchange. It counts
// nothing: its callers account the crack.
func (c *Column) partition(lo, hi int, t int64) (m int, moved int64) {
	vals, oids, pays := c.vals, c.oids, c.pays
	hasPays := len(pays) != 0
	i, j := lo, hi-1
	for i <= j {
		for i <= j && vals[i] < t {
			i++
		}
		for i <= j && vals[j] >= t {
			j--
		}
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
			oids[i], oids[j] = oids[j], oids[i]
			if hasPays {
				swapPays(pays, i, j)
			}
			moved += 2
			i++
			j--
		}
	}
	return i, moved
}

// accountCrack counts one crack of the piece [lo, hi) that made moved
// element writes, and marks the piece for write-back if anything moved.
func (c *Column) accountCrack(lo, hi int, moved int64) {
	if moved > 0 {
		c.markLocked(lo, hi)
	}
	c.stats.cracks.Add(1)
	c.stats.tuplesTouched.Add(int64(hi - lo))
	c.stats.tuplesMoved.Add(moved)
}

// crackInTwo partitions vals[lo:hi) at t — one crack — and returns the
// split position.
func (c *Column) crackInTwo(lo, hi int, t int64) int {
	m, moved := c.partition(lo, hi, t)
	c.accountCrack(lo, hi, moved)
	return m
}

// crackInThree is the three-piece Ξ for a range whose two cuts land in
// one piece: partition at tLo, then partition the right part at tHi. It
// counts as one crack over the piece, registers both cuts and returns
// the answer window [m1, m2) between them.
func (c *Column) crackInThree(lo, hi int, tLo, tHi int64) (m1, m2 int) {
	m1, moved1 := c.partition(lo, hi, tLo)
	m2, moved2 := c.partition(m1, hi, tHi)
	c.accountCrack(lo, hi, moved1+moved2)
	c.idx.Insert(tLo, m1)
	c.idx.Insert(tHi, m2)
	if c.lin != nil {
		c.lin.log = append(c.lin.log, xiCrack{lo: lo, hi: hi, m1: m1, m2: m2, v1: tLo, v2: tHi, three: true})
	}
	return m1, m2
}

// Insert queues a new value; it becomes visible to the next query, when
// pending updates are consolidated into the cracker store. It returns
// the OID assigned to the new tuple. The value arrives without the rest
// of its row, so payload vectors are dropped (CrackedTable.AppendColumns
// inserts through appendRows, which keeps them).
func (c *Column) Insert(val int64) bat.OID {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropPaysLocked()
	oid := c.nextOID
	c.nextOID++
	c.pending = append(c.pending, pendingInsert{oid: oid, row: uint32(len(c.pending)), val: val})
	c.touched = true
	return oid
}

// appendRows queues keys as pending inserts with consecutive OIDs. tail
// returns, for a payload attribute, that attribute's values of the same
// rows, in the same order.
func (c *Column) appendRows(keys []int64, tail func(attr string) []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pays {
		p.pend = append(p.pend, tail(p.attr)...)
	}
	for _, v := range keys {
		c.pending = append(c.pending, pendingInsert{oid: c.nextOID, row: uint32(len(c.pending)), val: v})
		c.nextOID++
	}
	c.touched = true
}

// Delete queues removal of the tuple with the given OID. It reports
// whether the OID is (still) known.
func (c *Column) Delete(oid bat.OID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, gone := c.deleted[oid]; gone {
		return false
	}
	if oid >= c.nextOID {
		return false
	}
	c.deleted[oid] = struct{}{}
	c.touched = true
	return true
}

// Verify checks the cracker invariants and returns the first violation
// (see VerifyCuts). Tests and the failure-injection suite call it after
// every operation batch; ColumnFromState makes the same walk on every
// restored column, placing the cuts it checks here.
func (c *Column) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.vals) != len(c.oids) {
		return fmt.Errorf("core: vals/oids length mismatch %d != %d", len(c.vals), len(c.oids))
	}
	return VerifyCuts(c.vals, c.idx.Cuts())
}

// VerifyCuts checks that cuts partition vals: each sits where placeCuts's
// one O(n + p) walk over the values puts it.
func VerifyCuts(vals []int64, cuts []Cut) error {
	placed := slices.Clone(cuts)
	if err := placeCuts(vals, placed); err != nil {
		return err
	}
	for i, c := range cuts {
		if c.Pos != placed[i].Pos {
			return fmt.Errorf("core: cut %d/%v at position %d, the values place it at %d", i, c, c.Pos, placed[i].Pos)
		}
	}
	return nil
}

// placeCuts sets each cut's position to the number of vals left of it,
// in one walk over the values, and refuses cuts out of value order or
// values no position partitions. Per-piece bounds suffice for the full
// invariant — every value on the correct side of every cut — because
// the cuts are value ordered: left of a cut is left of every greater cut,
// right of a cut is right of every smaller one. Checking each cut
// against the whole vector is O(n · p), which on a converged column
// turns a reboot into minutes.
func placeCuts(vals []int64, cuts []Cut) error {
	if err := valueOrdered(cuts); err != nil {
		return err
	}
	piece := 0 // cuts[:piece] lie left of vals[i]
	for i, v := range vals {
		for piece < len(cuts) && v >= cuts[piece].Val {
			cuts[piece].Pos = i
			piece++
		}
		if piece > 0 {
			if c := cuts[piece-1]; v < c.Val {
				return fmt.Errorf("core: vals[%d]=%d violates right side of cut <%d@%d", i, v, c.Val, c.Pos)
			}
		}
	}
	for ; piece < len(cuts); piece++ {
		cuts[piece].Pos = len(vals)
	}
	return nil
}
