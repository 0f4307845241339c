package core

import (
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
// amortizes all of them. Sorting the predicates that must crack by their
// lower bound additionally localizes the cracking: consecutive
// predicates land in the same or adjacent pieces, so the partition
// passes a batch triggers touch overlapping cache-resident regions.

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
// Under one read-lock hold every range whose two cuts the cracker index
// already holds is answered in submission order by probeCuts — the
// resolver Select's read path uses — with the stats accounted in bulk.
// A column with pending updates answers nothing there: the fold needs
// the write lock. The misses (an unregistered cut: the query must crack)
// then run under one write-lock hold, sorted by bound for piece
// locality. With ordered the batch stays strict: everything from the
// first miss on runs serially under the write lock, exactly like issuing
// the queries one by one.
//
// A hit's window is copied out before the read lock is released, and a
// miss's right after its selection: a later crack reorders the elements
// inside the pieces a window spans, and under MDD1R, whose query cuts go
// unregistered, moves them across its bounds.
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

	pdone := 0 // answers recorded == perm entries written
	nMiss := 0 // keys[:nMiss] are left for the write lock, in submission order
	c.mu.RLock()
	clean := len(c.pending) == 0 && len(c.deleted) == 0
	total := 0
	var nlook int64
	for i := range ranges {
		r := &ranges[i]
		if clean && (!ordered || nMiss == 0) {
			lo, hi, okLo, okHi, empty := c.probeCuts(r.Low, r.High, r.LowIncl, r.HighIncl)
			if okLo && okHi {
				if !empty {
					nlook += 2
				}
				// Deferred copy: stash the column window, not the data.
				// The read lock is held until after the flush below, so
				// the window cannot move in between.
				answers[i] = BatchAnswer{N: hi - lo}
				if !countOnly {
					offs[i] = [2]int{lo, hi}
				}
				total += hi - lo
				perm[pdone] = i
				pdone++
				continue
			}
		}
		keys[nMiss] = batchKey{low: r.Low, high: r.High, idx: int32(i), loIncl: r.LowIncl, hiIncl: r.HighIncl}
		nMiss++
	}
	if pdone > 0 {
		c.stats.queries.Add(int64(pdone))
	}
	if nlook > 0 {
		c.stats.indexLookups.Add(nlook)
	}
	if !countOnly && pdone > 0 {
		// Flush the deferred copies into exactly-sized buffers — one
		// allocation and one pass instead of append regrowth — and
		// rewrite the stashed windows into buffer offsets. The misses
		// append behind the reserved capacity later.
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
	c.mu.RUnlock()

	if nMiss > 0 {
		todo := keys[:nMiss]
		if !ordered {
			slices.SortFunc(todo, cmpBatchKey)
		}
		c.mu.Lock()
		for _, key := range todo {
			i := int(key.idx)
			r := &ranges[i]
			v := c.crackLocked(in, r.Low, r.High, r.LowIncl, r.HighIncl)
			// Full-struct write: answers is pooled, so this also clears
			// any stale Vals/OIDs a previous run left in the element.
			answers[i] = BatchAnswer{N: v.Len()}
			if !countOnly {
				start := len(vals)
				vals = append(vals, c.vals[v.Lo:v.Hi]...)
				oids = append(oids, c.oids[v.Lo:v.Hi]...)
				offs[i] = [2]int{start, len(vals)}
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
	n, _ := ct.count(c, r, true)
	return n, nil
}

// count answers r on c, r.Col's cracker column, and shows the select
// observer the range once it is answered; with write false it may
// decline instead (ok false), having changed nothing (Column.answer).
func (ct *CrackedTable) count(c *Column, r expr.Range, write bool) (n int, ok bool) {
	if !c.answer(r.Low, r.High, r.LowIncl, r.HighIncl, write, func(v View) { n = v.Len() }) {
		return 0, false
	}
	if ct.selectObs != nil {
		ct.selectObs(r)
	}
	return n, true
}
