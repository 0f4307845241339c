package core

import (
	"math"
	"slices"

	"crackdb/internal/bat"
)

// SortRows sorts tuples lexicographically (first column, then second,
// ...; shorter rows order before their extensions) in place. It is the
// canonical result order used when merging selections from several
// cracker stores: each shard returns tuples in its own crack order,
// which depends on that shard's query history, so a sharded select has
// no natural physical order. Sorting the merged rows makes the result a
// pure function of the qualifying tuple set — byte-identical however
// the table is partitioned.
//
// The sort runs over machine words, not slice headers: the first cells
// are copied into a key vector and co-sorted with the row indices by
// sortValsOIDs, only runs of equal first cells are compared on the full
// row, and the headers move once, at the end. Comparing through a
// []int64 per probe and swapping 24-byte headers (each swap a write
// barrier while the collector runs) cost three times as much on a
// thousand three-cell rows.
func SortRows(rows [][]int64) {
	if uint64(len(rows)) > math.MaxUint32 { // row indices ride in OIDs
		slices.SortFunc(rows, slices.Compare[[]int64])
		return
	}
	// Rows without a first cell are equal and order before all others.
	empty := 0
	for i, r := range rows {
		if len(r) == 0 {
			rows[i], rows[empty] = rows[empty], rows[i]
			empty++
		}
	}
	rows = rows[empty:]
	if len(rows) < 2 {
		return
	}
	keys := make([]int64, len(rows))
	order := make([]bat.OID, len(rows))
	for i, r := range rows {
		keys[i], order[i] = r[0], bat.OID(i)
	}
	sortValsOIDs(keys, order)
	byRow := func(a, b bat.OID) int { return slices.Compare(rows[a], rows[b]) }
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi] == keys[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], byRow)
		}
		lo = hi
	}
	sorted := make([][]int64, len(rows))
	for i, o := range order {
		sorted[i] = rows[o]
	}
	copy(rows, sorted)
}

// rowLess is the lexicographic order on tuples.
func rowLess(a, b []int64) bool { return slices.Compare(a, b) < 0 }
