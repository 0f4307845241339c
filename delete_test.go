package crackdb

import (
	"reflect"
	"testing"

	"crackdb/internal/core"
	"crackdb/internal/relation"
)

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

// TestProjectAfterDelete: sideways payload vectors survive a DELETE.
// They are compacted with their column, so a projection whose range held
// a deleted key is served from them like any other — no decline, no
// rebuild, no base fetch — and returns exactly the live rows.
func TestProjectAfterDelete(t *testing.T) {
	const n = 100_000
	s := New()
	if err := s.LoadTapestry("t", n, 3, 5); err != nil {
		t.Fatal(err)
	}
	base := relation.Tapestry(n, 3, 5) // the rows LoadTapestry made, for brute force
	c0, _ := base.Column("c0")
	c1, _ := base.Column("c1")
	c2, _ := base.Column("c2")
	dead := func(k int64) bool { return k == 50_000 || k >= 20_000 && k < 20_050 }
	project := func(lo, hi int64, deleted bool) {
		t.Helper()
		res, err := s.Select("t", "c0", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Rows("c1", "c2")
		if err != nil {
			t.Fatal(err)
		}
		var want [][]int64
		for i, k := range c0.Ints() {
			if k >= lo && k <= hi && !(deleted && dead(k)) {
				want = append(want, []int64{c1.Int(i), c2.Int(i)})
			}
		}
		core.SortRows(got)
		core.SortRows(want)
		if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("[%d,%d]: %d rows, brute force %d", lo, hi, len(got), len(want))
		}
	}
	ranges := [][2]int64{{49_500, 50_500}, {19_990, 20_100}, {50_000, 50_000}, {20_010, 20_020}, {1, n}}
	for pass := 0; pass < 2; pass++ {
		for _, r := range ranges {
			project(r[0], r[1], false)
		}
	}
	before := s.SidewaysStats()
	fetched, _ := s.FetchedTuples("t")
	if before.Pays != 2 || before.Projections == 0 || fetched != 0 {
		t.Fatalf("projections did not converge on payload vectors: %+v, %d tuples fetched", before, fetched)
	}

	if k, err := s.Delete("t", Cond{Col: "c0", Op: "=", Val: 50_000}); err != nil || k != 1 {
		t.Fatalf("delete by key: %d, %v", k, err)
	}
	if k, err := s.Delete("t", Cond{Col: "c0", Op: ">=", Val: 20_000}, Cond{Col: "c0", Op: "<", Val: 20_050}); err != nil || k != 50 {
		t.Fatalf("delete by key range: %d, %v", k, err)
	}
	for pass := 0; pass < 4; pass++ {
		for _, r := range ranges {
			project(r[0], r[1], true)
		}
	}
	after := s.SidewaysStats()
	if after.Declines != before.Declines || after.Builds != before.Builds || after.Pays != 2 {
		t.Fatalf("maps did not survive the delete: before %+v, after %+v", before, after)
	}
	if got, _ := s.FetchedTuples("t"); got != fetched {
		t.Fatalf("projections after the delete fetched %d tuples through the base table", got-fetched)
	}
	if want := int64(len(ranges) * 4); after.Projections-before.Projections != want {
		t.Fatalf("%d of %d projections served from payload vectors", after.Projections-before.Projections, want)
	}
}
