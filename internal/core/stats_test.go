package core

import (
	"reflect"
	"testing"

	"crackdb/internal/relation"
)

// TestStatsArithmetic sets every field of Stats to a distinct non-zero
// value and checks Add and Sub field by field, so a counter added to
// Stats but not to its arithmetic fails here.
func TestStatsArithmetic(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range va.NumField() {
		f := va.Type().Field(i)
		if k := f.Type.Kind(); k != reflect.Int && k != reflect.Int64 {
			t.Fatalf("Stats.%s is a %v: the arithmetic covers integer counters only", f.Name, f.Type)
		}
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum, diff := reflect.ValueOf(a.Add(b)), reflect.ValueOf(a.Sub(b))
	for i := range va.NumField() {
		name, x, y := va.Type().Field(i).Name, va.Field(i).Int(), vb.Field(i).Int()
		if got := sum.Field(i).Int(); got != x+y {
			t.Errorf("Add: %s = %d, want %d", name, got, x+y)
		}
		if got := diff.Field(i).Int(); got != x-y {
			t.Errorf("Sub: %s = %d, want %d", name, got, x-y)
		}
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", got, a)
	}
}

// TestCrackedTableStatsSumsColumns: a table's Stats is the Add of its
// columns' Stats, fold and write-back counters included.
func TestCrackedTableStatsSumsColumns(t *testing.T) {
	const n = 4096
	ct := NewCrackedTable(relation.Tapestry(n, 2, 7))
	ca, err := ct.ColumnFor("c0")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := ct.ColumnFor("c1")
	if err != nil {
		t.Fatal(err)
	}
	cb.forceFold = foldRebuild
	for lo := int64(100); lo < n; lo += 500 {
		ca.Count(lo, lo+200, true, false)
		cb.Count(lo, lo+200, true, false)
	}
	if err := ct.AppendColumns([][]int64{{n / 2}, {n / 2}}); err != nil { // mid-domain: cuts above it shift
		t.Fatal(err)
	}
	ca.Count(1, n, true, true) // ripples the insert
	cb.Count(1, n, true, true) // rebuilds

	got, want := ct.Stats(), ca.Stats().Add(cb.Stats())
	if got != want {
		t.Fatalf("table Stats = %+v, want the columns' sum %+v", got, want)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"RippleFolds", int64(got.RippleFolds)},
		{"RebuildFolds", int64(got.RebuildFolds)},
		{"CutsShifted", got.CutsShifted},
		{"GranulesDirtied", got.GranulesDirtied},
	} {
		if c.v == 0 {
			t.Errorf("%s = 0: the test does not exercise it", c.name)
		}
	}
}
