package core

import (
	"slices"
	"sync"
	"time"

	"crackdb/internal/expr"
)

// Batched counting: many range predicates over one cracker column
// answered in one call, in submission order. The ranges the index
// resolves are answered a run at a time under one read hold, their cuts
// looked up a group of probeGroup ranges at a time so the position-table
// misses overlap (Index.findGroup); the range that ends a run cracks
// under the write lock (crackLocked), as Column.answer would crack it. A
// batch therefore leaves the column exactly as the same ranges counted
// one by one would: the same answers and counters, the same cuts, in the
// same order, with the same strategy consulted for each. What it
// amortizes is the column's lock and accounting per range and everything
// around the column: the registry and column resolution, the result
// allocation, and the caller's per-query overhead. Converged ranges are
// timed by Instr.Batch alone, so ReadHold keeps timing one scalar read's
// hold. A batch may also be offered read-only (write false): answered
// whole from the index under one read hold, or declined untouched. A
// batch only counts; a selection is one Select per range.

// BatchAnswer is one predicate's answer within a column batch: the
// number of qualifying tuples.
type BatchAnswer struct {
	N int
}

// BatchRun owns the answers of one batch execution. Acquire one from
// the pool, run batches through it, Release it when the Answers are
// consumed. The pool is why a converged CountBatch allocates nothing
// but the counts it returns.
type BatchRun struct {
	// Answers is filled by CountBatchRun, in submission order. The
	// slice is reused across runs; copy anything that must outlive
	// Release.
	Answers []BatchAnswer

	ranges []Range // SelectBatchRun's folded ranges, reused across runs
}

var batchRunPool = sync.Pool{New: func() any { return new(BatchRun) }}

// AcquireBatchRun returns a run from the pool.
func AcquireBatchRun() *BatchRun { return batchRunPool.Get().(*BatchRun) }

// Release returns the run to the pool. The run and its Answers must not
// be used afterwards.
func (r *BatchRun) Release() {
	r.Answers = r.Answers[:0]
	batchRunPool.Put(r)
}

// SelectBatch counts every range of the batch and returns the answers
// plus the execution order (order[k] is the submission index executed
// k-th), which is submission order. It is the self-contained form of
// SelectBatchRun for callers that hold onto the answers. ordered and
// countOnly ask for nothing, as in SelectBatchRun.
func (c *Column) SelectBatch(ranges []expr.Range, ordered, countOnly bool) ([]BatchAnswer, []int) {
	r := AcquireBatchRun()
	defer r.Release()
	c.SelectBatchRun(ranges, ordered, countOnly, r)
	order := make([]int, len(ranges))
	for i := range order {
		order[i] = i
	}
	return append([]BatchAnswer(nil), r.Answers...), order
}

// SelectBatchRun counts every range of the batch into r.Answers, in
// submission order, each exactly as Count would. The ranges are folded
// (Inclusive) into scratch the run owns. ordered and countOnly ask for
// nothing: every batch runs in submission order and only counts, and the
// parameters stay only for callers compiled against them.
func (c *Column) SelectBatchRun(ranges []expr.Range, ordered, countOnly bool, run *BatchRun) {
	run.ranges = run.ranges[:0]
	for _, r := range ranges {
		run.ranges = append(run.ranges, inclusiveOf(r))
	}
	c.countBatch(run.ranges, run, nil, true)
}

// countBatch is SelectBatchRun, showing observe (when non-nil) each
// range once it is answered, outside the column lock. It alternates two
// holds: one read hold answers the longest run of ranges the index
// resolves (countConverged), and the range that ends the run — a cut
// missing, or updates pending — cracks under the write lock, exactly as
// answer's write branch would crack it.
//
// With write false the batch is offered to one read hold only, as
// answer offers a range: it answers when the index resolves every range,
// and otherwise declines — it returns false having changed nothing, not
// a counter, not a timing, and observe does not run. It reports whether
// the batch was answered.
func (c *Column) countBatch(ranges []Range, run *BatchRun, observe func(Range), write bool) bool {
	in := c.instr.Load()
	// A batch is tens of queries per call, so whole-call timing is
	// already amortized — no sampling needed.
	timed := in != nil && in.Batch != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	answers := slices.Grow(run.Answers[:0], len(ranges))[:len(ranges)]
	run.Answers = answers
	for i := 0; i < len(ranges); i++ {
		n := c.countConverged(ranges[i:], answers[i:], i > 0, write)
		if n == 0 && !write {
			return false
		}
		if observe != nil {
			for _, r := range ranges[i : i+n] {
				observe(r)
			}
		}
		if i += n; i == len(ranges) {
			break
		}
		c.mu.Lock()
		answers[i].N = c.crackLocked(in, ranges[i]).Len()
		c.mu.Unlock()
		if observe != nil {
			observe(ranges[i])
		}
	}
	if timed {
		in.Batch.Observe(time.Since(t0).Nanoseconds())
	}
	return true
}

// countConverged answers under one read hold the longest run at the front
// of ranges that the index resolves, each range as lookupFast would, into
// answers, and returns the run's length. It probes a group of probeGroup
// ranges at a time, so the group's table misses overlap, except that a
// hold that follows a crack (afterCrack) probes one range first: in a
// batch that cracks range after range, as a cold one does, a full group
// would read the cuts of seven ranges that the next hold reads again. It
// counts the run's queries and index lookups once. A column with pending
// inserts or deletes answers none: the next range folds them under the
// write lock.
//
// With write false the run must be all of ranges: a shorter one counts
// nothing and reads 0. Such an offer also probes one range first, so on
// a column that has not converged it declines after one probe.
func (c *Column) countConverged(ranges []Range, answers []BatchAnswer, afterCrack, write bool) int {
	c.mu.RLock()
	var win [probeGroup]window
	done, lookups, size := 0, 0, probeGroup
	if afterCrack || !write {
		size = 1
	}
run:
	for done < len(ranges) && len(c.pending) == 0 && len(c.deleted) == 0 {
		g := ranges[done:min(done+size, len(ranges))]
		size = probeGroup
		c.probeRanges(g, win[:])
		for _, w := range win[:len(g)] {
			if !w.resolved() {
				break run
			}
			if !w.empty {
				lookups += 2
			}
			answers[done].N = w.hi - w.lo
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

// CountBatchRun counts a batch of ranges on one attribute into the run,
// resolving the cracker column once for the whole batch. The select
// observer sees each range right after it is answered, as it does for a
// scalar count. An empty batch returns before the column is resolved,
// so, like no query at all, it creates no cracker column.
//
// With write false the batch is only offered (Column.countBatch): it
// is answered when attr's cracker column exists and its index resolves
// every range, and otherwise declined (ok false) having changed nothing,
// the cracker column not even created. The shard router offers every
// shard its sub-batch this way before it fans out.
func (ct *CrackedTable) CountBatchRun(attr string, ranges []Range, run *BatchRun, write bool) (ok bool, err error) {
	run.Answers = run.Answers[:0]
	if len(ranges) == 0 {
		return true, nil
	}
	var c *Column
	if write {
		if c, err = ct.ColumnFor(attr); err != nil {
			return false, err
		}
	} else if c, ok = ct.Column(attr); !ok {
		return false, nil
	}
	var observe func(Range)
	if ct.selectObs != nil {
		observe = func(r Range) { ct.selectObs(attr, r) }
	}
	return c.countBatch(ranges, run, observe, write), nil
}

// CountRange answers one range on attr without materializing anything —
// the single-query entry of the same path CountBatch takes, shared by
// the store's Count.
func (ct *CrackedTable) CountRange(attr string, r Range) (int, error) {
	c, err := ct.ColumnFor(attr)
	if err != nil {
		return 0, err
	}
	n, _ := ct.count(c, attr, r, true)
	return n, nil
}

// count answers r on c, attr's cracker column, and shows the select
// observer the range once it is answered; with write false it may
// decline instead (ok false), having changed nothing (Column.answer).
func (ct *CrackedTable) count(c *Column, attr string, r Range, write bool) (n int, ok bool) {
	if !c.answer(r, write, func(v View) { n = v.Len() }) {
		return 0, false
	}
	if ct.selectObs != nil {
		ct.selectObs(attr, r)
	}
	return n, true
}
