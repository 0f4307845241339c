package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
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
	sorted bool // whole column sorted: cuts become binary searches

	// strategy, when it advises (ddr), injects auxiliary cuts whenever
	// Select must open a new cut (see strategy.go). The zero value is
	// standard cracking: the native crack-in-two/-three kernels,
	// unmodified.
	strategy CrackStrategy

	forceFold foldKind // test hook: pin the update fold (see update.go)

	nextOID bat.OID
	pending []pendingInsert
	deleted map[bat.OID]struct{}

	// Write-back marks since the last TakeState (export.go): dirty holds
	// the granules the column wrote, touched says that something else a
	// record carries — length, next OID, sorted flag, pending inserts,
	// deletes, strategy state, payload names — may have moved. The index
	// notes its own cut changes (Index.changed).
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
// quantity Figure 2 plots — and by update folds; TuplesTouched the number
// inspected.
type Stats struct {
	Queries        int
	Cracks         int   // partition passes executed
	AuxCracks      int   // strategy-advised auxiliary cracks (subset of Cracks)
	IndexLookups   int   // cut lookups answered without cracking
	TuplesMoved    int64 // element writes during partitioning and folding
	TuplesTouched  int64 // element reads during partitioning
	Consolidations int   // pending-update folds: RippleFolds + RebuildFolds
	RippleFolds    int   // folds that kept the index
	RebuildFolds   int   // folds that dropped it
	CutsShifted    int64 // cut positions rewritten by folds
	PaysDropped    int   // payload vectors a reorganization could not carry (payload.go)

	// GranulesDirtied counts granules marked for write-back (granule.go):
	// a granule counts once between two image elements, however often it
	// is written.
	GranulesDirtied int64
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
	folded        atomic.Int64 // inserts + deletes folded; feeds CrackEvent.Folded

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

// Select answers the range query low θ_lo attr θ_hi high by cracking —
// the Ξ operator of §3.1. The result is a contiguous window of the
// column; pieces at the predicate boundaries are cracked as a byproduct,
// so the same range (and every sub-range) is answered by pure index
// lookups afterwards.
func (c *Column) Select(low, high int64, lowIncl, highIncl bool) View {
	var v View
	c.answer(low, high, lowIncl, highIncl, true, func(w View) { v = w })
	return v
}

// Count returns the number of qualifying tuples; cracking still happens
// (the query is also advice), but no result is materialized, matching the
// paper's observation that count-only queries need no fragment storage.
func (c *Column) Count(low, high int64, lowIncl, highIncl bool) int {
	n := 0
	c.answer(low, high, lowIncl, highIncl, true, func(w View) { n = w.Len() })
	return n
}

// SelectCopy answers like Select but returns copies of the qualifying
// values and OIDs, taken while the column lock is still held. This is
// the safe form under concurrent cracking: a View's windows alias the
// column and may be shuffled by cracks that run after Select returns.
func (c *Column) SelectCopy(low, high int64, lowIncl, highIncl bool) (vals []int64, oids []bat.OID) {
	c.answer(low, high, lowIncl, highIncl, true, func(w View) {
		vals, oids = append([]int64(nil), w.Values()...), append([]bat.OID(nil), w.OIDs()...)
	})
	return vals, oids
}

// answer is the lock protocol every single-range read runs. The query is
// first tried under the read lock: when the column has no pending
// updates and both cuts are already registered, nothing needs to move
// and concurrent lookups proceed in parallel. Only a query that must
// fold or crack escalates to the write lock (crackLocked). use
// receives the answer window while the lock that makes it valid is still
// held, and must not take c.mu.
//
// With write false the query is offered to the read branch only: when
// lookupFast cannot answer, answer declines — it returns false without
// taking the write lock, use does not run, and nothing changed, not even
// a counter. It reports whether use ran.
//
// Instrumentation off costs one atomic load and a branch. On, a read
// that wins the sampling gate is timed into ReadHold, lock hold and use
// included; the unsampled 255-in-256 converged lookups read no clock.
// Every write hold is observed (crackLocked); a decline is not.
func (c *Column) answer(low, high int64, lowIncl, highIncl, write bool, use func(View)) bool {
	in := c.instr.Load()
	var t0 time.Time
	timed := in != nil && in.ReadHold != nil && (in.SampleMask == 0 || uint64(c.stats.queries.Load())&in.SampleMask == 0)
	if timed {
		t0 = time.Now()
	}
	c.mu.RLock()
	if v, ok := c.lookupFast(low, high, lowIncl, highIncl); ok {
		use(v)
		c.mu.RUnlock()
		if timed {
			in.ReadHold.Observe(time.Since(t0).Nanoseconds())
		}
		return true
	}
	c.mu.RUnlock()
	if !write {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	use(c.crackLocked(in, low, high, lowIncl, highIncl))
	return true
}

// crackLocked answers one range under the write lock — fold and cracks,
// both in selectLocked — and, instrumented, observes the hold and
// records its CrackEvent. Cracking is observed sampled or not: write
// holds are microseconds, the timing is noise there.
func (c *Column) crackLocked(in *Instr, low, high int64, lowIncl, highIncl bool) View {
	if in == nil {
		return c.selectLocked(low, high, lowIncl, highIncl)
	}
	hs := c.beginWriteHoldLocked()
	v := c.selectLocked(low, high, lowIncl, highIncl)
	c.finishWriteHold(in, hs, low, high)
	return v
}

// probeCuts resolves a range's two cuts against the cracker index: the
// lower cut (low, !lowIncl) separates the non-qualifying prefix from the
// answer, the upper cut (high, highIncl) the answer from the suffix. A
// cut at a domain extreme is trivial — nothing is below the minimum or
// above the maximum — and needs no index entry. An empty or inverted
// range reports empty and resolves to the empty window at 0 without a
// lookup. The caller holds c.mu in either mode; nothing is counted.
// probeRanges resolves a batch's ranges the same way, a group at a time.
func (c *Column) probeCuts(low, high int64, lowIncl, highIncl bool) (posLo, posHi int, okLo, okHi, empty bool) {
	loVal, loIncl := low, !lowIncl
	hiVal, hiIncl := high, highIncl
	if cmpCut(loVal, loIncl, hiVal, hiIncl) >= 0 {
		return 0, 0, true, true, true
	}
	posLo, okLo = 0, loVal == math.MinInt64 && !loIncl
	posHi, okHi = len(c.vals), hiVal == math.MaxInt64 && hiIncl
	if !okLo {
		posLo, okLo = c.idx.Find(loVal, loIncl)
	}
	if !okHi {
		posHi, okHi = c.idx.Find(hiVal, hiIncl)
	}
	return posLo, posHi, okLo, okHi, false
}

// probeGroup is the most ranges probeRanges resolves at a time: their
// up to 2·probeGroup cuts go to one findGroup.
const probeGroup = 8

// A window is a range resolved against the cracker index: its answer is
// [lo, hi) when okLo and okHi hold; a false ok marks a cut the index does
// not hold yet. An empty range is the empty window at 0.
type window struct {
	lo, hi     int
	okLo, okHi bool
	empty      bool
}

// probeRanges resolves each of rs, at most probeGroup ranges, as
// probeCuts would, into win, looking up all of the group's cuts in one
// findGroup so that their cache misses overlap. The caller holds c.mu in
// either mode; nothing is counted.
func (c *Column) probeRanges(rs []expr.Range, win []window) {
	var keys [2 * probeGroup]cutKey
	var pos [2 * probeGroup]int
	n := 0
	for i := range rs {
		r, w := &rs[i], &win[i]
		if cmpCut(r.Low, !r.LowIncl, r.High, r.HighIncl) >= 0 {
			*w = window{okLo: true, okHi: true, empty: true}
			continue
		}
		*w = window{hi: len(c.vals), okLo: r.Low == math.MinInt64 && r.LowIncl, okHi: r.High == math.MaxInt64 && r.HighIncl}
		if !w.okLo {
			keys[n], n = cutKey{r.Low, !r.LowIncl}, n+1
		}
		if !w.okHi {
			keys[n], n = cutKey{r.High, r.HighIncl}, n+1
		}
	}
	c.idx.findGroup(keys[:n], pos[:n])
	k := 0
	for i := range rs {
		if w := &win[i]; !w.empty {
			if !w.okLo {
				w.lo, w.okLo, k = pos[k], pos[k] >= 0, k+1
			}
			if !w.okHi {
				w.hi, w.okHi, k = pos[k], pos[k] >= 0, k+1
			}
		}
	}
}

// lookupFast is the optimistic read path: it answers the query iff doing
// so mutates nothing — no pending updates to consolidate and both cuts
// resolved by probeCuts. The caller holds the read lock. On ok=false the
// caller must retry under the write lock via crackLocked, which
// re-derives everything from scratch (the column may have changed
// between the two lock acquisitions).
func (c *Column) lookupFast(low, high int64, lowIncl, highIncl bool) (View, bool) {
	if len(c.pending) != 0 || len(c.deleted) != 0 {
		return View{}, false
	}
	posLo, posHi, okLo, okHi, empty := c.probeCuts(low, high, lowIncl, highIncl)
	if !okLo || !okHi {
		return View{}, false
	}
	c.stats.queries.Add(1)
	if !empty {
		c.stats.indexLookups.Add(2)
	}
	return View{col: c, Lo: posLo, Hi: posHi}, true
}

func (c *Column) selectLocked(low, high int64, lowIncl, highIncl bool) View {
	c.consolidateLocked()
	c.stats.queries.Add(1)
	posLo, posHi, okLo, okHi, empty := c.probeCuts(low, high, lowIncl, highIncl)
	if okLo && okHi {
		if !empty {
			c.stats.indexLookups.Add(2)
		}
		return View{col: c, Lo: posLo, Hi: posHi}
	}
	loVal, loIncl := low, !lowIncl
	hiVal, hiIncl := high, highIncl

	// Strategy consultation: auxiliary data-driven cracks narrow the
	// piece(s) the query bounds land in before the bounds themselves are
	// installed. An aux crack can coincide with a query bound, so
	// re-probe the index after each consultation. Sorted columns skip
	// consultation — their cuts are pure binary searches and move
	// nothing.
	if c.strategy.advises() && !c.sorted {
		if !okLo {
			c.adviseLocked(loVal, loIncl)
			posLo, okLo = c.idx.Find(loVal, loIncl)
		}
		if !okHi {
			c.adviseLocked(hiVal, hiIncl)
			posHi, okHi = c.idx.Find(hiVal, hiIncl)
		}
		// Sides resolved here are counted either at this early return or
		// by the per-side accounting below — never both.
		if okLo && okHi {
			c.stats.indexLookups.Add(2)
			return View{col: c, Lo: posLo, Hi: posHi}
		}
	}

	// Crack-in-three when both cuts are new and land in the same piece:
	// the paper's three-piece Ξ variant for double-sided ranges. Sorted
	// columns skip it — their cuts are pure binary searches.
	if !okLo && !okHi && !c.sorted {
		lo1, hi1 := c.pieceBounds(loVal, loIncl)
		lo2, hi2 := c.pieceBounds(hiVal, hiIncl)
		if lo1 == lo2 && hi1 == hi2 {
			m1, m2 := c.crackInThree(lo1, hi1, loVal, loIncl, hiVal, hiIncl)
			return View{col: c, Lo: m1, Hi: m2}
		}
	}

	if okLo {
		c.stats.indexLookups.Add(1)
	} else {
		posLo = c.cut(loVal, loIncl)
	}
	if okHi {
		c.stats.indexLookups.Add(1)
	} else {
		posHi = c.cut(hiVal, hiIncl)
	}
	if posHi < posLo {
		// Can only happen for ranges empty under the column's value set.
		posHi = posLo
	}
	return View{col: c, Lo: posLo, Hi: posHi}
}

func (c *Column) sortLocked(detail string) {
	c.dropPaysLocked() // the sort permutes two vectors, not k
	sortValsOIDs(c.vals, c.oids)
	c.markWholeLocked()
	c.stats.tuplesMoved.Add(int64(len(c.vals)) * int64(ceilLog2(len(c.vals)))) // N log N write estimate
	c.stats.tuplesTouched.Add(int64(len(c.vals)) * int64(ceilLog2(len(c.vals))))
	c.idx.Reset()
	c.sorted = true
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

// pieceBounds returns the piece [lo, hi) the cut (val, incl) falls into.
func (c *Column) pieceBounds(val int64, incl bool) (lo, hi int) {
	lo, hi = 0, len(c.vals)
	if _, _, p, ok := c.idx.Floor(val, incl); ok {
		lo = p
	}
	if _, _, p, ok := c.idx.Ceil(val, incl); ok {
		hi = p
	}
	return lo, hi
}

// cut partitions the piece containing (val, incl) at that cut,
// registers the cut in the cracker index and returns its position.
func (c *Column) cut(val int64, incl bool) int {
	lo, hi := c.pieceBounds(val, incl)
	var m int
	if c.sorted {
		// Sorted pieces need no data movement: binary search the cut.
		m = lo + sort.Search(hi-lo, func(i int) bool {
			if incl {
				return c.vals[lo+i] > val
			}
			return c.vals[lo+i] >= val
		})
	} else {
		m = c.crackInTwo(lo, hi, val, incl)
	}
	c.idx.Insert(val, incl, m)
	if c.lin != nil { // a stale lineage re-roots from the index, which has the cut
		c.lin.log = append(c.lin.log, xiCrack{lo: lo, hi: hi, m1: m, m2: hi, v1: val, incl: incl})
	}
	return m
}

func cutOpString(incl bool) string {
	if incl {
		return "<="
	}
	return "<"
}

// cutThreshold rewrites the cut (val, incl) as an exclusive threshold t
// with "goes left" ⇔ e < t, hoisting the inclusivity branch out of the
// partition loops. all reports the one unrepresentable case — the
// MaxInt64-inclusive cut, which every element satisfies.
func cutThreshold(val int64, incl bool) (t int64, all bool) {
	if !incl {
		return val, false
	}
	if val == math.MaxInt64 {
		return 0, true
	}
	return val + 1, false
}

// crackInTwo partitions vals[lo:hi) so that elements satisfying the cut
// predicate (< val, or <= val when incl) precede the rest, returning the
// split position. It is the in-place "shuffle-exchange" of §3.4.2. The
// inner loop is branch-free with respect to inclusivity (one threshold
// comparison per element) and swaps the two slices directly; payload
// vectors follow through swapPays, behind a flag tested per exchange.
func (c *Column) crackInTwo(lo, hi int, val int64, incl bool) int {
	t, all := cutThreshold(val, incl)
	if all { // <= MaxInt64: every element goes left
		c.stats.cracks.Add(1)
		c.stats.tuplesTouched.Add(int64(hi - lo))
		return hi
	}
	vals, oids, pays := c.vals, c.oids, c.pays
	hasPays := len(pays) != 0
	var moved int64
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
	if moved > 0 {
		c.markLocked(lo, hi)
	}
	c.stats.cracks.Add(1)
	c.stats.tuplesTouched.Add(int64(hi - lo))
	c.stats.tuplesMoved.Add(moved)
	return i
}

// crackInThree partitions vals[lo:hi) into three pieces in a single pass
// (Dutch national flag): values before the lower cut, values inside the
// range, values past the upper cut. It registers both cuts and returns
// the answer window [m1, m2). Both cut predicates are rewritten as exclusive
// thresholds so the loop body is two comparisons per element, with
// inline swaps on the two slices.
func (c *Column) crackInThree(lo, hi int, loVal int64, loIncl bool, hiVal int64, hiIncl bool) (m1, m2 int) {
	// goes left  ⇔ e < tLo;  goes right ⇔ e >= tHi.
	tLo, allLo := cutThreshold(loVal, loIncl)
	tHi, allHi := cutThreshold(hiVal, hiIncl)
	if allLo || allHi {
		// MaxInt64-inclusive cuts cannot reach here from Select (unbounded
		// sides are answered trivially); partition in two passes so the
		// main kernel stays threshold-only. The second pass starts at m1,
		// so it cannot disturb the first boundary.
		m1 = c.crackInTwo(lo, hi, loVal, loIncl)
		m2 = c.crackInTwo(m1, hi, hiVal, hiIncl)
	} else {
		vals, oids, pays := c.vals, c.oids, c.pays
		hasPays := len(pays) != 0
		var moved int64
		lt, gt, i := lo, hi-1, lo
		for i <= gt {
			switch e := vals[i]; {
			case e < tLo:
				if i != lt {
					vals[i], vals[lt] = vals[lt], e
					oids[i], oids[lt] = oids[lt], oids[i]
					if hasPays {
						swapPays(pays, i, lt)
					}
					moved += 2
				}
				lt++
				i++
			case e >= tHi:
				vals[i], vals[gt] = vals[gt], e
				oids[i], oids[gt] = oids[gt], oids[i]
				if hasPays {
					swapPays(pays, i, gt)
				}
				moved += 2
				gt--
			default:
				i++
			}
		}
		m1, m2 = lt, gt+1
		if moved > 0 {
			c.markLocked(lo, hi)
		}
		c.stats.cracks.Add(1)
		c.stats.tuplesTouched.Add(int64(hi - lo))
		c.stats.tuplesMoved.Add(moved)
	}
	c.idx.Insert(loVal, loIncl, m1)
	c.idx.Insert(hiVal, hiIncl, m2)
	if c.lin != nil {
		c.lin.log = append(c.lin.log, xiCrack{lo: lo, hi: hi, m1: m1, m2: m2, v1: loVal, v2: hiVal, three: true})
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
// in one walk over the values, and refuses cuts out of key order or
// values no position partitions. Per-piece bounds suffice for the full
// invariant — every value on the correct side of every cut — because
// the cuts are key ordered: left of a cut is left of every greater cut,
// right of a cut is right of every smaller one. Checking each cut
// against the whole vector is O(n · p), which on a converged column
// turns a reboot into minutes.
func placeCuts(vals []int64, cuts []Cut) error {
	if err := keyOrdered(cuts); err != nil {
		return err
	}
	piece := 0 // cuts[:piece] lie left of vals[i]
	for i, v := range vals {
		for piece < len(cuts) && !cuts[piece].leftOf(v) {
			cuts[piece].Pos = i
			piece++
		}
		if piece > 0 {
			if c := cuts[piece-1]; c.leftOf(v) {
				return fmt.Errorf("core: vals[%d]=%d violates right side of cut %s%d@%d", i, v, cutOpString(c.Incl), c.Val, c.Pos)
			}
		}
	}
	for ; piece < len(cuts); piece++ {
		cuts[piece].Pos = len(vals)
	}
	return nil
}
