package crackdb

import (
	"sort"
	"testing"
)

func TestSelectWhereOperators(t *testing.T) {
	s := New()
	s.CreateTable("t", "a")
	s.InsertRows("t", [][]int64{{1}, {2}, {3}, {4}, {5}})
	cases := []struct {
		op   string
		val  int64
		want int
	}{
		{"<", 3, 2}, {"<=", 3, 3}, {"=", 3, 1}, {">=", 3, 3}, {">", 3, 2}, {"<>", 3, 4}, {"!=", 3, 4}, {"==", 3, 1},
	}
	for _, c := range cases {
		n, err := s.CountWhere("t", Cond{Col: "a", Op: c.op, Val: c.val})
		if err != nil {
			t.Fatalf("op %q: %v", c.op, err)
		}
		if n != c.want {
			t.Fatalf("op %q: count %d, want %d", c.op, n, c.want)
		}
	}
	if _, err := s.CountWhere("t", Cond{Col: "a", Op: "~", Val: 1}); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if _, err := s.CountWhere("t", Cond{Col: "zzz", Op: "<", Val: 1}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := s.CountWhere("missing", Cond{Col: "a", Op: "<", Val: 1}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestResultOIDs(t *testing.T) {
	s := New()
	s.CreateTable("t", "a")
	s.InsertRows("t", [][]int64{{30}, {10}, {20}})
	res, err := s.Select("t", "a", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	oids := res.OIDs()
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	if len(oids) != 2 || oids[0] != 1 || oids[1] != 2 {
		t.Fatalf("OIDs = %v, want [1 2]", oids)
	}
}

func TestTablesListing(t *testing.T) {
	s := New()
	s.CreateTable("b", "x")
	s.CreateTable("a", "x")
	got := s.Tables()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestDropTableClearsCrackedState(t *testing.T) {
	s := newEventStore(t, 100)
	if _, err := s.Select("events", "reading", 0, 500); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("events"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("events", "reading", 0, 500); err == nil {
		t.Fatal("select on dropped table succeeded")
	}
	// Re-creating under the same name starts clean.
	if err := s.CreateTable("events", "x"); err != nil {
		t.Fatal(err)
	}
	n, err := s.NumRows("events")
	if err != nil || n != 0 {
		t.Fatalf("recreated table rows = %d, %v", n, err)
	}
}

func TestSelectWhereCracksOnlyDrivingColumn(t *testing.T) {
	s := New()
	if err := s.LoadTapestry("tap", 2000, 2, 5); err != nil {
		t.Fatal(err)
	}
	// Sharpen statistics on c0 with a narrow query.
	if _, err := s.Count("tap", "c0", 100, 120); err != nil {
		t.Fatal(err)
	}
	// A conjunction where c0 is far more selective than c1.
	if _, err := s.SelectWhere("tap",
		Cond{Col: "c0", Op: ">=", Val: 100},
		Cond{Col: "c0", Op: "<=", Val: 120},
		Cond{Col: "c1", Op: ">=", Val: 1},
	); err != nil {
		t.Fatal(err)
	}
	// c1 must have stayed virgin: the planner drove with c0.
	st, err := s.Stats("tap", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cracks != 0 {
		t.Fatalf("planner cracked the unselective column: %+v", st)
	}
}
