// Batched counting across shards: a batch of ranges fans out as one
// frame of work per shard. Each target shard receives its sub-batch —
// the predicates whose key interval overlaps the shard — and executes
// it under a single shard-store entry (crackdb.Store.CountBatch), so the
// shard-store entry and column resolution the scalar path pays per
// query are paid once per shard per batch. The shard answers its
// sub-batch's ranges in submission order, as it would count them sent
// alone, the converged ones a run at a time under one read hold of the
// column (core's countBatch). gather's pass 1 offers each shard its
// sub-batch read-only on the calling goroutine (crackdb.Store.ReadBatch):
// a shard whose index resolves every range answers there, under one read
// hold, and a converged batch starts no goroutine. A shard that must
// create its cracker column, fold pending updates or crack declines
// having changed nothing, and pass 2 counts its sub-batch as before, the
// declined shards concurrently. Per-predicate counts sum.
package shard

import (
	"crackdb"
)

// subBatch is the slice of a batch routed to one shard: the ranges plus
// their submission indices, so per-shard answers scatter back to the
// right predicate.
type subBatch struct {
	ranges []crackdb.Range
	idx    []int
}

// routeBatch groups a batch of inclusive ranges on col into per-shard
// sub-batches. Ranges on the partition key prune to the shard span that
// can hold qualifying keys; ranges on any other column visit every
// shard. Empty ranges (Low > High) are routed nowhere — their answer is
// zero tuples on every shard — so col is checked here, not by a shard.
// A first pass counts each shard's share, so the sub-batches are cut
// from one exactly sized array of ranges and one of indices.
func (s *Store) routeBatch(table string, m *tableMeta, part partitioner, col string, ranges []crackdb.Range) ([]subBatch, error) {
	if err := m.hasColumn(table, col); err != nil {
		return nil, err
	}
	span := func(r crackdb.Range) (first, last int) {
		if r.Low > r.High {
			return 0, -1
		}
		if col == m.key {
			return part.span(r.Low, r.High)
		}
		return 0, len(s.shards) - 1
	}
	share := make([]int, len(s.shards))
	total := 0
	for _, r := range ranges {
		first, last := span(r)
		for t := first; t <= last; t++ {
			share[t]++
		}
		total += last - first + 1
	}
	sub := make([]subBatch, len(s.shards))
	rs, idx := make([]crackdb.Range, total), make([]int, total)
	for t, n := range share {
		sub[t].ranges, sub[t].idx = rs[:0:n], idx[:0:n]
		rs, idx = rs[n:], idx[n:]
	}
	for i, r := range ranges {
		first, last := span(r)
		for t := first; t <= last; t++ {
			sub[t].ranges = append(sub[t].ranges, r)
			sub[t].idx = append(sub[t].idx, i)
		}
	}
	return sub, nil
}

// CountBatch answers many inclusive ranges on one column, fanning out
// one sub-batch per target shard and summing the per-shard counts per
// predicate. Counts come back in submission order.
func (s *Store) CountBatch(table, col string, ranges []crackdb.Range) ([]int, error) {
	m, part, err := s.meta(table)
	if err != nil {
		return nil, err
	}
	sub, err := s.routeBatch(table, m, part, col, ranges)
	if err != nil {
		return nil, err
	}
	s.noteRoutedBatch(sub)
	per, err := gather(0, len(s.shards)-1, func(i int) ([]int, bool, error) {
		if len(sub[i].ranges) == 0 {
			return nil, true, nil
		}
		return s.shards[i].ReadBatch(table, col, sub[i].ranges)
	}, func(i int) ([]int, error) {
		return s.shards[i].CountBatch(table, col, sub[i].ranges)
	})
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(ranges))
	for t, counted := range per {
		for j, n := range counted {
			counts[sub[t].idx[j]] += n
		}
	}
	return counts, nil
}
