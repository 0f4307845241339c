package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"crackdb/internal/core"
	"crackdb/internal/relation"
	"crackdb/internal/sideways"
)

// TestCensusFollowsColumns: the sideways registry budgets what live
// columns hold, whoever dropped or replaced them — a column re-sorted
// under its payloads (SortAll, the paper's sort-upfront alternative,
// which only tests reach), a column replaced by a restored one, a table
// the store no longer holds. It lives here, in core's external test
// package, because SortAll is a test-only export of core.
func TestCensusFollowsColumns(t *testing.T) {
	rel := relation.New("t", "k", "a", "b")
	rng := rand.New(rand.NewSource(12))
	rows := make([][]int64, 800)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(10_000), rng.Int63n(1000), rng.Int63n(1000)}
		if err := rel.AppendRow(rows[i]...); err != nil {
			t.Fatal(err)
		}
	}
	ct := core.NewCrackedTable(rel)
	held := []*core.CrackedTable{ct}
	g := sideways.NewRegistry(sideways.DefaultBudget, func() []*core.CrackedTable { return held })
	r := core.Range{Low: 1000, High: 6000}
	var want [][]int64
	for _, row := range rows {
		if row[0] >= r.Low && row[0] <= r.High {
			want = append(want, []int64{row[1], row[2]})
		}
	}
	core.SortRows(want)
	project := func() ([][]int64, bool) {
		_, sel, err := ct.SelectCopy("k", r)
		if err != nil {
			t.Fatal(err)
		}
		wins, ok := g.Project(ct, "k", r, []string{"a", "b"}, sel)
		if !ok {
			return nil, false
		}
		got := make([][]int64, len(wins[0]))
		for i := range got {
			got[i] = []int64{wins[0][i], wins[1][i]}
		}
		core.SortRows(got)
		return got, true
	}
	serve := func(when string) {
		t.Helper()
		got, ok := project()
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: projection declined (%v) or diverges", when, !ok)
		}
	}
	serve("first")
	col, _ := ct.Column("k")
	// A reorganization the payloads cannot follow drops them at the column.
	col.SortAll()
	if st := g.Snapshot(); st.Pays != 0 || st.Sets != 0 || col.Stats().PaysDropped != 2 {
		t.Fatalf("after SortAll: %d pays on %d columns, %d dropped; want 0, 0, 2", st.Pays, st.Sets, col.Stats().PaysDropped)
	}
	serve("after SortAll")
	// A restored column without payloads replaces the live one.
	st, _ := col.TakeState(true)
	st.Pays = nil
	twin, err := ct.ColumnFromState("k", st)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.ReplaceColumn("k", twin); err != nil {
		t.Fatal(err)
	}
	if st := g.Snapshot(); st.Pays != 0 {
		t.Fatalf("after ReplaceColumn: %d pays counted on a column that is gone", st.Pays)
	}
	serve("after ReplaceColumn")
	if st := g.Snapshot(); st.Pays != 2 || st.Builds != 6 {
		t.Fatalf("%d pays after %d builds, want 2 after 6", st.Pays, st.Builds)
	}
	// The store dropped the table: its wrapper leaves the live list.
	held = nil
	if st := g.Snapshot(); st.Pays != 0 {
		t.Fatalf("after the drop: %d pays", st.Pays)
	}
	// A stale selection on the dropped wrapper gathers nothing there.
	col, _ = ct.Column("k")
	col.SortAll()
	if _, ok := project(); ok {
		t.Fatal("a wrapper the store no longer holds was handed payloads")
	}
	if st := g.Snapshot(); st.Builds != 6 {
		t.Fatalf("%d builds after the drop, want 6", st.Builds)
	}
}
