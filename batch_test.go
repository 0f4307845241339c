package crackdb

import (
	"maps"
	"testing"
)

// TestEmptyBatchCreatesNothing: a batch of no ranges is no query at all.
// It creates no cracker column (whose first delta checkpoint would carry
// the whole column), touches no counter of one that exists, and refuses
// an unknown table or column in Count's words.
func TestEmptyBatchCreatesNothing(t *testing.T) {
	s := New()
	if err := s.LoadTapestry("t", 1000, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Count("t", "c0", 100, 199); err != nil {
		t.Fatal(err)
	}
	before, err := s.CrackedColumnStats("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"c0", "c1"} {
		for _, ranges := range [][]Range{nil, {}} {
			counts, err := s.CountBatch("t", col, ranges)
			if err != nil || len(counts) != 0 {
				t.Fatalf("CountBatch(t, %s, %#v) = %v, %v", col, ranges, counts, err)
			}
		}
	}
	if after, _ := s.CrackedColumnStats("t"); !maps.Equal(before, after) {
		t.Fatalf("an empty batch changed the cracker columns:\nbefore %+v\nafter  %+v", before, after)
	}
	for _, tc := range []struct{ table, col string }{{"x", "c0"}, {"t", "z"}} {
		_, want := s.Count(tc.table, tc.col, 0, 1)
		if _, err := s.CountBatch(tc.table, tc.col, nil); err == nil || err.Error() != want.Error() {
			t.Fatalf("CountBatch(%s, %s, nil) = %v, want %v", tc.table, tc.col, err, want)
		}
	}
}
