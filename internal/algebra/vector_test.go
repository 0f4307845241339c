package algebra

import (
	"bytes"
	"strings"
	"testing"

	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

func TestVecSelectMatchesVolcanoFilter(t *testing.T) {
	tbl := relation.Tapestry(1000, 2, 5)
	col := tbl.MustColumn("c0")
	for _, q := range [][2]int64{{1, 100}, {500, 500}, {900, 2000}, {50, 49}} {
		pos := VecSelect(col, q[0], q[1], true, true)
		f, err := NewFilter(NewTableScan(tbl), expr.Term{
			{Col: "c0", Op: expr.Ge, Val: q[0]},
			{Col: "c0", Op: expr.Le, Val: q[1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Drain(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(pos) != len(rows) {
			t.Fatalf("query %v: vectorized %d, Volcano %d", q, len(pos), len(rows))
		}
		if got := VecCount(col, q[0], q[1], true, true); got != len(rows) {
			t.Fatalf("query %v: VecCount %d, want %d", q, got, len(rows))
		}
	}
}

func TestVecPrint(t *testing.T) {
	tbl := relation.Tapestry(100, 2, 5)
	pos := VecSelect(tbl.MustColumn("c0"), 1, 10, true, true)
	var buf bytes.Buffer
	n, err := VecPrint(tbl, pos, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("printed %d rows, want 10", n)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("front-end received %d lines", len(lines))
	}
	for _, l := range lines {
		if len(strings.Split(l, "\t")) != 2 {
			t.Fatalf("line %q not two columns", l)
		}
	}
}

func TestVecMaterialize(t *testing.T) {
	tbl := relation.Tapestry(200, 2, 9)
	pos := VecSelect(tbl.MustColumn("c0"), 1, 50, true, true)
	out, err := VecMaterialize(tbl, pos, "frag001")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 50 {
		t.Fatalf("materialized %d rows, want 50", out.Len())
	}
	// Values correspond to source positions.
	src := tbl.MustColumn("c0")
	outCol := out.MustColumn("c0")
	for i, p := range pos {
		if outCol.Int(i) != src.Int(int(p)) {
			t.Fatalf("row %d: %d != %d", i, outCol.Int(i), src.Int(int(p)))
		}
	}
}
