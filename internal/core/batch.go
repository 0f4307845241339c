package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

// Batched selection: many range predicates over one cracker column
// answered under at most two lock acquisitions (one read, one write)
// instead of one or two per query. The per-query economics of cracking
// are dominated by fixed costs once a column converges — registry
// resolution, lock round trips, result allocation — and a batch
// amortizes all of them. Sorting the predicates by their lower bound
// additionally localizes the cracking: consecutive predicates land in
// the same or adjacent pieces, so the partition passes a batch triggers
// touch overlapping cache-resident regions.

// BatchAnswer is one predicate's answer within a column batch. For a
// counting batch only N is set. For a selecting batch Vals and OIDs are
// three-index subslices of backing arrays shared by the whole batch —
// one amortized allocation instead of two per query — and N equals
// len(Vals). The subslices are copies taken while the column lock was
// held, so they stay valid under later cracking.
type BatchAnswer struct {
	Vals []int64
	OIDs []bat.OID
	N    int
}

// batchKey is the compact sort key of one batch predicate. Sorting a
// key slice instead of an interface-driven permutation matters: at
// converged-lookup speeds the sort is a double-digit percentage of the
// whole batch, and sort.Sort/sort.SliceStable pay an indirect call plus
// a 48-byte expr.Range copy per comparison. The submission index rides
// in the key both as the final tie-break (distinct indexes make an
// unstable sort produce the stable sorted-bound order) and as the
// permutation output.
type batchKey struct {
	low, high      int64
	idx            int32
	loIncl, hiIncl bool
}

func cmpBatchKey(a, b batchKey) int {
	if a.low != b.low {
		if a.low < b.low {
			return -1
		}
		return 1
	}
	if a.loIncl != b.loIncl {
		// [v, ...] starts before (v, ...]
		if a.loIncl {
			return -1
		}
		return 1
	}
	if a.high != b.high {
		if a.high < b.high {
			return -1
		}
		return 1
	}
	if a.hiIncl != b.hiIncl {
		if !a.hiIncl {
			return -1
		}
		return 1
	}
	return int(a.idx) - int(b.idx)
}

// BatchRun owns the scratch buffers of one batch execution — answers,
// permutation, sort keys, answer windows. Acquire one from the pool,
// run batches through it, Release it when the Answers are consumed.
// Pooling these is not a micro-optimization: the scratch is several
// hundred bytes per predicate, and on a converged column allocating and
// zeroing it fresh costs more than answering the whole batch.
//
// Only the buffer headers are pooled. The Vals/OIDs backing arrays a
// selecting batch fills are freshly allocated each run, because they
// escape into the caller's results. A released run may keep the
// previous batch's tail elements (beyond the next batch's length)
// reachable until overwritten; that retention is bounded by one batch.
type BatchRun struct {
	// Answers is filled by SelectBatchRun, in submission order. The
	// slice is reused across runs; copy anything that must outlive
	// Release.
	Answers []BatchAnswer

	perm []int
	keys []batchKey
	offs [][2]int
}

var batchRunPool = sync.Pool{New: func() any { return new(BatchRun) }}

// AcquireBatchRun returns a scratch run from the pool.
func AcquireBatchRun() *BatchRun { return batchRunPool.Get().(*BatchRun) }

// Release returns the run's buffers to the pool. The run and its
// Answers must not be used afterwards.
func (r *BatchRun) Release() {
	r.Answers = r.Answers[:0]
	batchRunPool.Put(r)
}

// scratch resizes a pooled buffer to n elements, reallocating only on
// capacity growth. Callers fully overwrite the returned prefix, so no
// clearing is needed.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cutSnapshot is a read-optimized flattening of the cracker index: the
// registered cuts in key order, split into parallel arrays. A converged
// batch resolves each bound with a search over contiguous memory
// instead of an O(log p) pointer chase through AVL nodes — the
// per-query win that lets a batch amortize essentially all of the
// scalar path's cost. The snapshot is immutable once published;
// validity is the index version it was built at.
//
// The cold search (find) runs over eyt, the cut values re-laid in
// Eytzinger (BFS heap) order: the first levels of the implicit tree
// share a handful of cache lines, so the early probes that a sorted
// binary search scatters across the whole array all hit hot memory, and
// the 2k/2k+1 stride is regular enough for the hardware prefetcher.
// The sorted vals array stays — findFrom gallops from a known floor,
// which needs contiguity, and at() resolves same-value neighbors by
// adjacency.
type cutSnapshot struct {
	version uint64
	vals    []int64
	incls   []bool
	poss    []int
	eyt     []int64 // vals in Eytzinger order, 1-based (slot 0 unused)
	eytIdx  []int32 // eyt slot -> index into the sorted arrays
}

// newCutSnapshot flattens the cuts (already in key order) into the
// snapshot's parallel arrays and builds the Eytzinger layout.
func newCutSnapshot(version uint64, cuts []Cut) *cutSnapshot {
	s := &cutSnapshot{
		version: version,
		vals:    make([]int64, len(cuts)),
		incls:   make([]bool, len(cuts)),
		poss:    make([]int, len(cuts)),
		eyt:     make([]int64, len(cuts)+1),
		eytIdx:  make([]int32, len(cuts)+1),
	}
	for i, cut := range cuts {
		s.vals[i], s.incls[i], s.poss[i] = cut.Val, cut.Incl, cut.Pos
	}
	s.fillEytzinger(1, 0)
	return s
}

// fillEytzinger places the sorted values into heap slot k and its
// subtree via in-order traversal: the k-th in-order slot of the
// implicit tree receives the k-th smallest value. i is the next sorted
// index to consume; the updated value is returned.
func (s *cutSnapshot) fillEytzinger(k, i int) int {
	if k < len(s.eyt) {
		i = s.fillEytzinger(2*k, i)
		s.eyt[k] = s.vals[i]
		s.eytIdx[k] = int32(i)
		i++
		i = s.fillEytzinger(2*k+1, i)
	}
	return i
}

// snapshotLocked returns the snapshot of the current index, or nil when
// there is none worth having. It is built (O(p)) only once a whole batch
// has run over the current index version without cracking (c.quiet):
// while a column is still cracking every batch moves the version, and a
// snapshot built for one batch would only be missed on and thrown away
// by the next. On a converged column it is built once, ever. The caller
// must hold c.mu in either mode: the index mutates only under the write
// lock, so any hold freezes the tree and a rebuild reads consistent
// state. Concurrent read-lock holders may race to rebuild; they produce
// identical snapshots and either store wins.
func (c *Column) snapshotLocked() *cutSnapshot {
	v := c.idx.Version()
	if s := c.snap.Load(); s != nil && s.version == v {
		return s
	}
	if c.quiet.Load() != v {
		return nil
	}
	s := newCutSnapshot(v, c.idx.Cuts())
	c.snap.Store(s)
	return s
}

// at resolves a value-only search result to the exact cut (val, incl).
// lo is the first index whose cut value is >= val (within the searched
// suffix). Cuts on the same value appear as (val, false) then
// (val, true), so the exact key is at lo or lo+1 if it is registered at
// all. The returned index is a correct search floor either way.
func (s *cutSnapshot) at(lo int, val int64, incl bool) (int, int, bool) {
	if lo < len(s.vals) && s.vals[lo] == val {
		if s.incls[lo] == incl {
			return lo, s.poss[lo], true
		}
		if incl && lo+1 < len(s.vals) && s.vals[lo+1] == val {
			return lo + 1, s.poss[lo+1], true
		}
	}
	return lo, 0, false
}

// find locates the exact cut (val, incl), returning its array index,
// its column position, and whether it is registered. The descent walks
// the Eytzinger layout — one value compare per level, branch-free child
// step — and the final k encodes the lower bound: shifting off the
// trailing 1-bits (the right turns since the last left turn) plus one
// lands on the last node where the search went left, which holds the
// smallest value >= val. k underflowing to 0 means no such node: every
// comparison went right, the lower bound is len(vals).
func (s *cutSnapshot) find(val int64, incl bool) (int, int, bool) {
	n := len(s.vals)
	k := 1
	eyt := s.eyt
	for k <= n {
		// Written so the compiler emits a conditional move, not a branch:
		// the comparison outcome is data-dependent and would mispredict
		// half the time.
		right := 0
		if eyt[k] < val {
			right = 1
		}
		k = 2*k + right
	}
	k >>= uint(bits.TrailingZeros(^uint(k)) + 1)
	lo := n
	if k != 0 {
		lo = int(s.eytIdx[k])
	}
	return s.at(lo, val, incl)
}

// findFrom locates the exact cut (val, incl) at or after index from,
// returning its array index, its column position, and whether it is
// registered. It gallops before binary-searching: a predicate's upper
// cut sits near its lower one, so the bracket is typically a handful of
// comparisons wide.
func (s *cutSnapshot) findFrom(from int, val int64, incl bool) (int, int, bool) {
	n := len(s.vals)
	bound := 1
	for from+bound < n && s.vals[from+bound] < val {
		bound <<= 1
	}
	lo := from + bound>>1
	hi := from + bound
	if hi > n {
		hi = n
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.vals[m] < val {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return s.at(lo, val, incl)
}

// batchSnapshotMin gates the snapshot path: below this batch size the
// possible O(p) rebuild after an index mutation is not worth amortizing
// and the batch runs on the same per-query lookupFast as Select.
const batchSnapshotMin = 8

// SelectBatch answers every range of the batch and returns the answers
// in submission order plus the execution permutation (perm[k] is the
// submission index executed k-th). It is the self-contained form of
// SelectBatchRun for callers that hold onto the answers, paying two
// copies for the convenience.
func (c *Column) SelectBatch(ranges []expr.Range, ordered, countOnly bool) ([]BatchAnswer, []int) {
	r := AcquireBatchRun()
	defer r.Release()
	c.SelectBatchRun(ranges, ordered, countOnly, r)
	return append([]BatchAnswer(nil), r.Answers...), append([]int(nil), r.perm...)
}

// SelectBatchRun answers every range of the batch into r.Answers
// (submission order); r.perm records the execution order. With
// countOnly nothing is materialized; only BatchAnswer.N is set.
//
// Execution order: batches of at least batchSnapshotMin on a clean
// column whose index has a snapshot (see snapshotLocked: not while it
// is still cracking) resolve predicates against it in submission
// order — exact-cut searches over contiguous arrays, stats accounted in
// bulk — under one shared read-lock hold. Sorting converged lookups
// would buy nothing, so only the predicates the snapshot cannot answer
// (an unregistered cut: the query must crack) are then sorted by bound,
// for piece locality, and run under a single write-lock hold. Every
// other batch takes the classic path: sorted (submission order if
// ordered) through per-query lookupFast, escalating the remainder to
// the write lock at the first miss. With ordered the snapshot path also
// stays strict: everything from the first miss on runs serially under
// the write lock, exactly like issuing the queries one by one.
//
// Each answer is copied immediately after its selection — under MDD1R
// a selection's window is invalidated by the next query on the column,
// so deferring the copies to the end of the batch would be incorrect.
func (c *Column) SelectBatchRun(ranges []expr.Range, ordered, countOnly bool, run *BatchRun) {
	in := c.instr.Load()
	if in != nil && in.Batch != nil {
		// A batch is tens of queries per call, so whole-call timing is
		// already amortized — no sampling needed.
		t0 := time.Now()
		defer func() { in.Batch.Observe(time.Since(t0).Nanoseconds()) }()
	}
	n := len(ranges)
	run.Answers = scratch(run.Answers, n)
	answers := run.Answers
	run.perm = scratch(run.perm, n)
	perm := run.perm
	run.keys = scratch(run.keys, n)
	keys := run.keys

	// Shared backing buffers: offs[i] records the i-th answer's window so
	// the subslices can be cut after the buffers stop growing. vals and
	// oids escape into the answers, so they are fresh, not pooled.
	var vals []int64
	var oids []bat.OID
	var offs [][2]int
	if !countOnly {
		run.offs = scratch(run.offs, n)
		offs = run.offs
	}
	record := func(i int, v View) {
		// Full-struct write: answers is pooled, so this also clears any
		// stale Vals/OIDs a previous run left in the element.
		answers[i] = BatchAnswer{N: v.Len()}
		if countOnly {
			return
		}
		start := len(vals)
		vals = append(vals, c.vals[v.Lo:v.Hi]...)
		oids = append(oids, c.oids[v.Lo:v.Hi]...)
		offs[i] = [2]int{start, len(vals)}
	}

	pdone := 0          // answers recorded == perm entries written
	var todo []batchKey // predicates left for the write-lock path, in execution order

	c.mu.RLock()
	var snap *cutSnapshot
	if n >= batchSnapshotMin && len(c.pending) == 0 && len(c.deleted) == 0 {
		snap = c.snapshotLocked()
	}
	if snap != nil {
		// Vectorized read path: resolve both bounds of each predicate
		// against the flat cut snapshot, upper cut galloping from the
		// lower one. Stats are accounted in bulk after the loop — same
		// totals as lookupFast's per-query adds, without 2N atomic
		// operations.
		nMiss := 0
		total := 0
		var nq, nlook int64
		for i := 0; i < n; i++ {
			r := &ranges[i]
			loVal, loIncl := r.Low, !r.LowIncl
			hiVal, hiIncl := r.High, r.HighIncl
			posLo, posHi := 0, 0
			if cmpCut(loVal, loIncl, hiVal, hiIncl) < 0 { // non-empty range
				okLo, idxLo := loVal == math.MinInt64 && !loIncl, 0
				if !okLo {
					idxLo, posLo, okLo = snap.find(loVal, loIncl)
				}
				posHi = len(c.vals)
				okHi := hiVal == math.MaxInt64 && hiIncl
				if okLo && !okHi {
					_, posHi, okHi = snap.findFrom(idxLo, hiVal, hiIncl)
				}
				if !okLo || !okHi {
					if ordered {
						// Strict submission order: the remainder runs
						// serially under the write lock.
						for j := i; j < n; j++ {
							keys[nMiss] = batchKey{idx: int32(j)}
							nMiss++
						}
						break
					}
					keys[nMiss] = batchKey{low: r.Low, high: r.High, idx: int32(i), loIncl: r.LowIncl, hiIncl: r.HighIncl}
					nMiss++
					continue
				}
				nlook += 2
			}
			// Deferred copy: stash the column window, not the data. The
			// read lock is held until after the flush below, so the
			// window cannot move in between.
			answers[i] = BatchAnswer{N: posHi - posLo}
			if !countOnly {
				offs[i] = [2]int{posLo, posHi}
			}
			total += posHi - posLo
			perm[pdone] = i
			pdone++
			nq++
		}
		if nq > 0 {
			c.stats.queries.Add(nq)
		}
		if nlook > 0 {
			c.stats.indexLookups.Add(nlook)
		}
		if !countOnly && pdone > 0 {
			// Flush the deferred copies into exactly-sized buffers — one
			// allocation and one pass instead of append regrowth — and
			// rewrite the stashed windows into buffer offsets. Predicates
			// still in todo append behind the reserved capacity later.
			vals = make([]int64, 0, total)
			oids = make([]bat.OID, 0, total)
			for _, i := range perm[:pdone] {
				lo, hi := offs[i][0], offs[i][1]
				start := len(vals)
				vals = append(vals, c.vals[lo:hi]...)
				oids = append(oids, c.oids[lo:hi]...)
				offs[i] = [2]int{start, len(vals)}
			}
		}
		if nMiss > 0 {
			if !ordered {
				slices.SortFunc(keys[:nMiss], cmpBatchKey)
			}
			todo = keys[:nMiss]
		}
	} else {
		// Classic read path: execution order up front (sorted by bound
		// unless ordered), per-query lookupFast until the first predicate
		// that must mutate.
		for i, r := range ranges {
			keys[i] = batchKey{low: r.Low, high: r.High, idx: int32(i), loIncl: r.LowIncl, hiIncl: r.HighIncl}
		}
		if !ordered && n > 1 {
			slices.SortFunc(keys, cmpBatchKey)
		}
		for k := 0; k < n; k++ {
			i := int(keys[k].idx)
			r := &ranges[i]
			v, ok := c.lookupFast(r.Low, r.High, r.LowIncl, r.HighIncl)
			if !ok {
				todo = keys[k:]
				break
			}
			record(i, v)
			perm[pdone] = i
			pdone++
		}
		if len(todo) == 0 {
			// Nothing had to crack: the index has settled at this
			// version, and the next batch may flatten it.
			c.quiet.Store(c.idx.Version())
		}
	}
	c.mu.RUnlock()
	if len(todo) > 0 {
		// The read path already accounted the answered prefix; the
		// escalation picks up exactly the predicates it could not answer.
		c.mu.Lock()
		for _, key := range todo {
			i := int(key.idx)
			r := &ranges[i]
			var hs holdState
			if in != nil {
				hs = c.beginWriteHoldLocked()
			}
			record(i, c.selectLocked(r.Low, r.High, r.LowIncl, r.HighIncl))
			if in != nil {
				c.finishWriteHold(in, hs, r.Low, r.High)
			}
			perm[pdone] = i
			pdone++
		}
		c.mu.Unlock()
	}

	if !countOnly {
		for i := range answers {
			a, b := offs[i][0], offs[i][1]
			answers[i].Vals = vals[a:b:b]
			answers[i].OIDs = oids[a:b:b]
		}
	}
}

// SelectBatchRun answers a batch of ranges on one attribute into the
// run, resolving the cracker column once for the whole batch. Every
// range must name the attr column. The select observer fires once per
// range, in execution order — the order the cuts actually landed on the
// column — after the batch completes.
func (ct *CrackedTable) SelectBatchRun(attr string, ranges []expr.Range, ordered, countOnly bool, run *BatchRun) error {
	c, err := ct.ColumnFor(attr)
	if err != nil {
		return err
	}
	c.SelectBatchRun(ranges, ordered, countOnly, run)
	if ct.selectObs != nil {
		for _, i := range run.perm {
			ct.selectObs(ranges[i])
		}
	}
	return nil
}

// CountRange answers one range without materializing anything — the
// single-query entry of the same path CountBatch takes, shared by the
// store's Count.
func (ct *CrackedTable) CountRange(r expr.Range) (int, error) {
	c, err := ct.ColumnFor(r.Col)
	if err != nil {
		return 0, err
	}
	n := c.Count(r.Low, r.High, r.LowIncl, r.HighIncl)
	if ct.selectObs != nil {
		ct.selectObs(r)
	}
	return n, nil
}
