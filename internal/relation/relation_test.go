package relation

import (
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

func buildRS(t *testing.T) *Table {
	t.Helper()
	tbl := New("R", "k", "a")
	for i := int64(0); i < 10; i++ {
		if err := tbl.AppendRow(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestNewAppendRow(t *testing.T) {
	tbl := buildRS(t)
	if tbl.Len() != 10 || tbl.Arity() != 2 {
		t.Fatalf("Len=%d Arity=%d", tbl.Len(), tbl.Arity())
	}
	row := tbl.Row(3)
	if row[0] != 3 || row[1] != 30 {
		t.Fatalf("Row(3) = %v", row)
	}
	m := tbl.RowMap(3)
	if m["k"] != 3 || m["a"] != 30 {
		t.Fatalf("RowMap(3) = %v", m)
	}
	if err := tbl.AppendRow(1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestColumnLookup(t *testing.T) {
	tbl := buildRS(t)
	b, err := tbl.Column("a")
	if err != nil || b.Len() != 10 {
		t.Fatalf("Column(a): %v", err)
	}
	if _, err := tbl.Column("z"); err == nil {
		t.Fatal("missing column lookup succeeded")
	}
	if !tbl.HasColumn("k") || tbl.HasColumn("z") {
		t.Fatal("HasColumn wrong")
	}
	names := tbl.ColumnNames()
	if len(names) != 2 || names[0] != "k" || names[1] != "a" {
		t.Fatalf("ColumnNames = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustColumn on missing column did not panic")
		}
	}()
	tbl.MustColumn("z")
}

func TestFromColumnsValidation(t *testing.T) {
	a := bat.FromInts("a", []int64{1, 2, 3})
	b := bat.FromInts("b", []int64{4, 5})
	if _, err := FromColumns("T", Column{"a", a}, Column{"b", b}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromColumns("T", Column{"a", a}, Column{"a", a}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	tbl, err := FromColumns("T", Column{"a", a})
	if err != nil || tbl.Len() != 3 {
		t.Fatalf("FromColumns: %v", err)
	}
}

func TestFilter(t *testing.T) {
	tbl := buildRS(t)
	got := tbl.Filter("f", expr.Term{{Col: "a", Op: expr.Ge, Val: 50}, {Col: "k", Op: expr.Lt, Val: 8}})
	if got.Len() != 3 { // k in {5,6,7}
		t.Fatalf("Filter len = %d, want 3", got.Len())
	}
	for i := 0; i < got.Len(); i++ {
		m := got.RowMap(i)
		if m["a"] < 50 || m["k"] >= 8 {
			t.Fatalf("row %v violates predicate", m)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tbl := buildRS(t)
	c := tbl.Clone("copy")
	c.MustColumn("a").Ints()[0] = 999
	if tbl.MustColumn("a").Int(0) == 999 {
		t.Fatal("clone shares storage")
	}
}

func TestEmptyTable(t *testing.T) {
	empty := &Table{Name: "E"}
	if empty.Len() != 0 {
		t.Fatal("empty table has rows")
	}
}
