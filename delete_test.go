package crackdb

import (
	"path/filepath"
	"testing"
)

// brute counts live rows matching low <= reading <= high by full scan —
// the oracle the cracked paths are checked against.
func bruteCount(t *testing.T, s *Store, table, col string, low, high int64) int {
	t.Helper()
	res, err := s.SelectWhere(table, Cond{Col: col, Op: ">=", Val: low}, Cond{Col: col, Op: "<=", Val: high})
	if err != nil {
		t.Fatal(err)
	}
	return res.Count()
}

func TestDeleteBasic(t *testing.T) {
	s := newEventStore(t, 2000)

	before, err := s.Count("events", "reading", 0, 999)
	if err != nil {
		t.Fatal(err)
	}
	if before != 2000 {
		t.Fatalf("baseline count %d, want 2000", before)
	}

	// Crack a second column first, so the delete must propagate into an
	// already-materialized cracker.
	if _, err := s.Select("events", "ts", 100, 300); err != nil {
		t.Fatal(err)
	}

	want, err := s.Count("events", "reading", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Delete("events", Cond{Col: "reading", Op: ">=", Val: 100}, Cond{Col: "reading", Op: "<=", Val: 200})
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("deleted %d rows, range held %d", n, want)
	}

	// The range is empty now, totals shrank, and every column agrees.
	if got, _ := s.Count("events", "reading", 100, 200); got != 0 {
		t.Fatalf("deleted range still counts %d", got)
	}
	if got, _ := s.Count("events", "reading", 0, 999); got != 2000-n {
		t.Fatalf("total %d after delete, want %d", got, 2000-n)
	}
	if got, err := s.NumRows("events"); err != nil || got != 2000-n {
		t.Fatalf("NumRows = %d (%v), want %d", got, err, 2000-n)
	}
	// A column cracked before the delete and one cracked after both
	// exclude the tombstoned tuples.
	tsAll, err := s.Select("events", "ts", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if tsAll.Count() != 2000-n {
		t.Fatalf("ts column sees %d live rows, want %d", tsAll.Count(), 2000-n)
	}
	senAll, err := s.Select("events", "sensor", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if senAll.Count() != 2000-n {
		t.Fatalf("sensor column sees %d live rows, want %d", senAll.Count(), 2000-n)
	}

	// Deleting again is a no-op.
	again, err := s.Delete("events", Cond{Col: "reading", Op: ">=", Val: 100}, Cond{Col: "reading", Op: "<=", Val: 200})
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("second delete removed %d rows", again)
	}

	// Inserts after a delete land live.
	if err := s.InsertRows("events", [][]int64{{9001, 3, 150}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Count("events", "reading", 100, 200); got != 1 {
		t.Fatalf("post-delete insert not visible: count %d, want 1", got)
	}
}

func TestDeleteEmptyConjunctionClearsTable(t *testing.T) {
	s := newEventStore(t, 100)
	n, err := s.Delete("events")
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("unconditional delete removed %d, want 100", n)
	}
	if got, _ := s.NumRows("events"); got != 0 {
		t.Fatalf("NumRows = %d after full delete", got)
	}
}

func TestDeleteWarmRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img")
	s := newEventStore(t, 1500)
	if _, err := s.Select("events", "reading", 200, 600); err != nil {
		t.Fatal(err)
	}
	n, err := s.Delete("events", Cond{Col: "reading", Op: "<", Val: 100})
	if err != nil {
		t.Fatal(err)
	}
	liveTotal := bruteCount(t, s, "events", "reading", 0, 999)
	if liveTotal != 1500-n {
		t.Fatalf("live total %d, want %d", liveTotal, 1500-n)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := re.NumRows("events"); got != 1500-n {
		t.Fatalf("reopened NumRows = %d, want %d", got, 1500-n)
	}
	if got := bruteCount(t, re, "events", "reading", 0, 99); got != 0 {
		t.Fatalf("reopened store resurrects %d deleted rows", got)
	}
	if got := bruteCount(t, re, "events", "reading", 0, 999); got != 1500-n {
		t.Fatalf("reopened live total %d, want %d", got, 1500-n)
	}
	// A cold open of the same image keeps the tombstones too.
	cold, err := OpenCold(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := cold.NumRows("events"); got != 1500-n {
		t.Fatalf("cold reopened NumRows = %d, want %d", got, 1500-n)
	}
}
