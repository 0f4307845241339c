package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSortRowsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 5000} {
		rows := make([][]int64, n)
		for i := range rows {
			// Small value domain to force duplicate prefixes and exercise
			// the tie-break columns.
			rows[i] = []int64{rng.Int63n(8), rng.Int63n(8), rng.Int63n(1 << 30)}
		}
		want := make([][]int64, n)
		for i := range rows {
			want[i] = append([]int64(nil), rows[i]...)
		}
		sort.SliceStable(want, func(a, b int) bool { return rowLess(want[a], want[b]) })
		SortRows(rows)
		for i := range rows {
			for j := range rows[i] {
				if rows[i][j] != want[i][j] {
					t.Fatalf("n=%d row %d col %d: got %d want %d", n, i, j, rows[i][j], want[i][j])
				}
			}
		}
	}
}

func TestSortRowsAdversarial(t *testing.T) {
	// Already-sorted and reverse-sorted inputs must not blow the stack
	// (the depth limit flips to heapsort).
	n := 20000
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	SortRows(rows)
	for i := 1; i < n; i++ {
		if rows[i-1][0] > rows[i][0] {
			t.Fatal("sorted input not preserved")
		}
	}
	for i := range rows {
		rows[i] = []int64{int64(n - i)}
	}
	SortRows(rows)
	for i := 1; i < n; i++ {
		if rows[i-1][0] > rows[i][0] {
			t.Fatal("reverse input not sorted")
		}
	}
}

func TestRowLessRagged(t *testing.T) {
	if !rowLess([]int64{1}, []int64{1, 0}) {
		t.Fatal("prefix must order before its extension")
	}
	if rowLess([]int64{2}, []int64{1, 9}) {
		t.Fatal("first column dominates")
	}
}

// TestSortRowsMatchesCompare holds the co-sort against the sort it
// replaced, slices.SortFunc over slices.Compare, on the inputs where a
// first-cell key could go wrong: heavy first-cell duplicates (the
// tie-break runs), rows of unequal length including empty ones, and
// the extreme values.
func TestSortRowsMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	cell := func(domain int64) int64 {
		if rng.Intn(8) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return rng.Int63n(domain) - domain/2
	}
	for trial := 0; trial < 400; trial++ {
		n := []int{0, 1, 2, 3, 17, 200, 1500}[rng.Intn(7)]
		domain := []int64{1, 2, 5, 1 << 40}[rng.Intn(4)] // 1: every first cell equal
		ragged := rng.Intn(2) == 0
		rows := make([][]int64, n)
		for i := range rows {
			width := 3
			if ragged {
				width = rng.Intn(5) // 0..4: empty rows, prefixes and extensions
			}
			rows[i] = make([]int64, width)
			for j := range rows[i] {
				rows[i][j] = cell(domain)
			}
		}
		want := slices.Clone(rows)
		slices.SortFunc(want, slices.Compare[[]int64])
		SortRows(rows)
		for i := range rows {
			// Equal rows are interchangeable; everything else has one place.
			if !slices.Equal(rows[i], want[i]) {
				t.Fatalf("trial %d (n=%d domain=%d ragged=%v): row %d is %v, want %v", trial, n, domain, ragged, i, rows[i], want[i])
			}
		}
	}
	// A short row orders before its extensions, and the empty row first.
	rows := [][]int64{{1, 0}, {1}, {}, {1, math.MinInt64}, {0, 9, 9}, {}}
	SortRows(rows)
	want := [][]int64{{}, {}, {0, 9, 9}, {1}, {1, math.MinInt64}, {1, 0}}
	for i := range want {
		if !slices.Equal(rows[i], want[i]) {
			t.Fatalf("ragged order: got %v, want %v", rows, want)
		}
	}
}
