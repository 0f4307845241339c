package crackdb

import "crackdb/internal/core"

// Range is one inclusive batch predicate: Low <= col <= High, empty when
// Low > High — the form a range takes below the planner, which the
// store's column answers as it is.
type Range = core.Range

// CountBatch counts many inclusive ranges over one column in a single
// store entry: the table registry and cracker column are resolved once,
// and the ranges are answered in submission order, each run of converged
// ones under one read hold of the column — so the batch cracks exactly as
// the same Counts sent one by one would. The
// counts come back in submission order. An empty batch creates nothing.
func (s *Store) CountBatch(table, col string, ranges []Range) ([]int, error) {
	counts, _, err := s.countBatch(table, col, ranges, true)
	return counts, err
}

// ReadBatch offers a batch to the store read-only, as ReadWhere offers a
// conjunction. When the column's cracker index resolves every range and
// no update is pending, it answers as CountBatch does, under one read
// hold. Otherwise it declines: ok is false and nothing changed — no
// cracker column created, no statistic, no timing, not the auto-tuner's
// view of the workload — so CountBatch can answer the batch next as if
// the offer had never been made. An error is the one CountBatch would
// return, never a decline. The shard router offers every shard its
// sub-batch this way first and fans out only the shards that decline.
func (s *Store) ReadBatch(table, col string, ranges []Range) (counts []int, ok bool, err error) {
	return s.countBatch(table, col, ranges, false)
}

// countBatch is CountBatch, and ReadBatch with write false.
func (s *Store) countBatch(table, col string, ranges []Range, write bool) ([]int, bool, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return nil, false, err
	}
	run := core.AcquireBatchRun()
	defer run.Release()
	if ok, err := ct.CountBatchRun(col, ranges, run, write); !ok || err != nil {
		return nil, false, err
	}
	counts := make([]int, len(run.Answers))
	for i, a := range run.Answers {
		counts[i] = a.N
	}
	return counts, true, nil
}
