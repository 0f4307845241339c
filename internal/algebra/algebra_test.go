package algebra

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

func testTable(t *testing.T, n int) *relation.Table {
	t.Helper()
	tbl := relation.New("R", "k", "a")
	for i := int64(0); i < int64(n); i++ {
		if err := tbl.AppendRow(i, i%10); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTableScan(t *testing.T) {
	tbl := testTable(t, 5)
	rows, err := Drain(NewTableScan(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("scanned %d rows, want 5", len(rows))
	}
	if rows[3][0] != 3 || rows[3][1] != 3 {
		t.Fatalf("row 3 = %v", rows[3])
	}
	// Next before Open errors.
	s := NewTableScan(tbl)
	if _, _, err := s.Next(); err == nil {
		t.Fatal("Next before Open succeeded")
	}
}

func TestFilter(t *testing.T) {
	tbl := testTable(t, 100)
	f, err := NewFilter(NewTableScan(tbl), expr.Term{
		{Col: "a", Op: expr.Ge, Val: 5},
		{Col: "k", Op: expr.Lt, Val: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.Filter("ref", expr.Term{{Col: "a", Op: expr.Ge, Val: 5}, {Col: "k", Op: expr.Lt, Val: 50}})
	if len(rows) != want.Len() {
		t.Fatalf("filter returned %d rows, want %d", len(rows), want.Len())
	}
	for _, r := range rows {
		if r[1] < 5 || r[0] >= 50 {
			t.Fatalf("row %v violates predicate", r)
		}
	}
	// Unknown column errors at construction.
	if _, err := NewFilter(NewTableScan(tbl), expr.Term{{Col: "zzz", Op: expr.Eq, Val: 1}}); err == nil {
		t.Fatal("filter on unknown column accepted")
	}
}

func TestRename(t *testing.T) {
	tbl := testTable(t, 3)
	r := NewRename(NewTableScan(tbl), "R0")
	rows, err := Drain(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || len(rows[0]) != 2 {
		t.Fatalf("rename changed the row shape: %v", rows)
	}
	if got := r.Schema(); got[0] != "R0.k" || got[1] != "R0.a" {
		t.Fatalf("schema = %v", got)
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	left := relation.New("L", "k", "a")
	right := relation.New("R", "k", "b")
	for i := int64(0); i < 30; i++ {
		left.AppendRow(i%7, i)
		right.AppendRow(i%5, i*2)
	}
	hj, err := NewHashJoin(NewRename(NewTableScan(left), "L"), NewRename(NewTableScan(right), "R"), "L.k", "R.k")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NewNestedLoopJoin(NewRename(NewTableScan(left), "L"), NewRename(NewTableScan(right), "R"), "L.k", "R.k")
	if err != nil {
		t.Fatal(err)
	}
	hrows, err := Drain(hj)
	if err != nil {
		t.Fatal(err)
	}
	nrows, err := Drain(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(hrows) != len(nrows) {
		t.Fatalf("hash join %d rows, nested loop %d", len(hrows), len(nrows))
	}
	canon := func(rows []Row) map[string]int {
		m := make(map[string]int)
		for _, r := range rows {
			var sb strings.Builder
			for _, v := range r {
				sb.WriteString(strconv.FormatInt(v, 10))
				sb.WriteByte(',')
			}
			m[sb.String()]++
		}
		return m
	}
	h, n := canon(hrows), canon(nrows)
	for k, c := range h {
		if n[k] != c {
			t.Fatalf("row multiset differs at %q: %d vs %d", k, c, n[k])
		}
	}
	// Join keys actually match.
	for _, r := range hrows {
		if r[0] != r[2] {
			t.Fatalf("joined row %v has mismatched keys", r)
		}
	}
}

func TestJoinUnknownColumn(t *testing.T) {
	tbl := testTable(t, 3)
	if _, err := NewHashJoin(NewTableScan(tbl), NewTableScan(tbl), "zzz", "k"); err == nil {
		t.Fatal("hash join on unknown column accepted")
	}
	if _, err := NewNestedLoopJoin(NewTableScan(tbl), NewTableScan(tbl), "k", "zzz"); err == nil {
		t.Fatal("nested loop join on unknown column accepted")
	}
}

func TestCountPrintMaterializeAgree(t *testing.T) {
	tbl := testTable(t, 200)
	term := expr.Term{{Col: "a", Op: expr.Lt, Val: 3}}
	mk := func() Iterator {
		f, err := NewFilter(NewTableScan(tbl), term)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	n, err := Count(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	pn, err := Print(mk(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := Materialize(mk(), "newR", RowStoreTxn)
	if err != nil {
		t.Fatal(err)
	}
	if n != pn || n != mt.Len() {
		t.Fatalf("delivery modes disagree: count=%d print=%d materialize=%d", n, pn, mt.Len())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != n {
		t.Fatalf("printed %d lines, want %d", lines, n)
	}
}

func TestMaterializeNonTransactional(t *testing.T) {
	tbl := testTable(t, 10)
	out, err := Materialize(NewTableScan(tbl), "tmp", RowStoreLite)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("materialized %d rows", out.Len())
	}
}

func TestProfilesList(t *testing.T) {
	profs := Profiles()
	if len(profs) != 3 {
		t.Fatalf("profiles = %d", len(profs))
	}
	names := map[string]bool{}
	for _, p := range profs {
		names[p.Name] = true
	}
	for _, want := range []string{"rowstore-txn", "rowstore-lite", "colstore"} {
		if !names[want] {
			t.Fatalf("missing profile %q", want)
		}
	}
	if !ColStore.Vectorized || RowStoreLite.Vectorized || RowStoreTxn.Vectorized {
		t.Fatal("vectorized flags wrong")
	}
}

func TestIteratorSchemas(t *testing.T) {
	tbl := testTable(t, 3)
	scan := NewTableScan(tbl)
	f, err := NewFilter(scan, expr.Term{{Col: "a", Op: expr.Ge, Val: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Schema(); len(got) != 2 || got[0] != "k" {
		t.Fatalf("filter schema = %v", got)
	}
	// Unopened iterators refuse Next.
	if _, _, err := scan.Next(); err == nil {
		t.Fatal("TableScan Next before Open succeeded")
	}
	hj, err := NewHashJoin(NewTableScan(tbl), NewTableScan(tbl), "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hj.Next(); err == nil {
		t.Fatal("HashJoin Next before Open succeeded")
	}
	nl, err := NewNestedLoopJoin(NewTableScan(tbl), NewTableScan(tbl), "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nl.Next(); err == nil {
		t.Fatal("NestedLoopJoin Next before Open succeeded")
	}
}
