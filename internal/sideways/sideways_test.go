package sideways

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"crackdb/internal/core"
	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

// buildTable makes a three-column relation (k, a, b) with seeded random
// contents and returns its cracked wrapper plus the raw rows.
func buildTable(t *testing.T, n int, seed int64) (*core.CrackedTable, [][]int64) {
	t.Helper()
	rel := relation.New("t", "k", "a", "b")
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(10_000), rng.Int63n(1000), rng.Int63n(1000)}
		if err := rel.AppendRow(rows[i]...); err != nil {
			t.Fatal(err)
		}
	}
	return core.NewCrackedTable(rel), rows
}

// liveOf is the live list of a store holding exactly cts.
func liveOf(cts ...*core.CrackedTable) func() []*core.CrackedTable {
	return func() []*core.CrackedTable { return cts }
}

func incRange(lo, hi int64) expr.Range {
	return expr.Range{Col: "k", Low: lo, High: hi, LowIncl: true, HighIncl: true}
}

// wantProjection computes the oracle: the multiset of (k, a) pairs with
// k in [lo, hi], canonically sorted.
func wantProjection(rows [][]int64, lo, hi int64, cols ...int) [][]int64 {
	var out [][]int64
	for _, r := range rows {
		if r[0] >= lo && r[0] <= hi {
			row := make([]int64, len(cols))
			for i, c := range cols {
				row[i] = r[c]
			}
			out = append(out, row)
		}
	}
	core.SortRows(out)
	return out
}

func sorted(rows [][]int64) [][]int64 {
	cp := make([][]int64, len(rows))
	for i, r := range rows {
		cp[i] = append([]int64(nil), r...)
	}
	core.SortRows(cp)
	return cp
}

func asRows(wins [][]int64) [][]int64 {
	if len(wins) == 0 {
		return nil
	}
	out := make([][]int64, len(wins[0]))
	for i := range out {
		row := make([]int64, len(wins))
		for j, w := range wins {
			row[j] = w[i]
		}
		out[i] = row
	}
	return out
}

// project runs the store's two steps — select on the key, project the
// selection — and returns the windows as canonically sorted rows.
func project(t *testing.T, g *Registry, ct *core.CrackedTable, lo, hi int64, attrs ...string) ([][]int64, bool) {
	t.Helper()
	_, sel, err := ct.SelectCopy(incRange(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	wins, ok := g.Project(ct, incRange(lo, hi), attrs, sel)
	return sorted(asRows(wins)), ok
}

func TestProjectMatchesOracle(t *testing.T) {
	ct, rows := buildTable(t, 4000, 1)
	g := NewRegistry(DefaultBudget, liveOf(ct))
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 60; q++ {
		lo := rng.Int63n(9000)
		hi := lo + rng.Int63n(1200) + 1
		got, ok := project(t, g, ct, lo, hi, "k", "a", "b")
		if !ok {
			t.Fatalf("query %d: projection declined", q)
		}
		if want := wantProjection(rows, lo, hi, 0, 1, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d [%d,%d]: projection diverges from oracle", q, lo, hi)
		}
	}
	st := g.Snapshot()
	if st.Sets != 1 || st.Pays != 2 {
		t.Fatalf("census = %d sets / %d pays, want 1/2", st.Sets, st.Pays)
	}
	if st.Builds != 2 {
		t.Fatalf("builds = %d, want 2 (a and b, once each)", st.Builds)
	}
	// An attribute the table does not have is refused, and counted.
	if _, ok := project(t, g, ct, 0, 100, "k", "nope"); ok {
		t.Fatal("projection of an unknown attribute served")
	}
	if st := g.Snapshot(); st.Declines != 1 || st.Pays != 2 {
		t.Fatalf("after an unknown attribute: %d declines, %d pays, want 1 and 2", st.Declines, st.Pays)
	}
}

// TestProjectStaleLengthDeclines pins the consistency guard: when the
// range stops holding exactly the selected tuples between the caller's
// selection and the projection, Project must decline rather than return
// tuples the selection never saw — also when a delete and an insert
// leave the cardinality where it was.
func TestProjectStaleLengthDeclines(t *testing.T) {
	ct, rows := buildTable(t, 1000, 3)
	g := NewRegistry(DefaultBudget, liveOf(ct))
	r, attrs := incRange(100, 5000), []string{"k", "a"}
	_, sel, _ := ct.SelectCopy(r)
	if _, ok := g.Project(ct, r, attrs, sel); !ok {
		t.Fatal("warm-up projection declined")
	}
	// Append a row inside the range behind the caller's back.
	if err := ct.AppendColumns([][]int64{{200}, {7}, {7}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Project(ct, r, attrs, sel); ok {
		t.Fatal("projection served a selection one tuple short")
	}
	// Delete one of the selected tuples: same cardinality, other tuples.
	if ct.DeleteOIDs(sel[:1]) != 1 {
		t.Fatal("delete refused")
	}
	if _, ok := g.Project(ct, r, attrs, sel); ok {
		t.Fatal("projection served a selection whose cardinality only coincides")
	}
	// A fresh selection serves again, from the same payload vector.
	got, ok := project(t, g, ct, 100, 5000, attrs...)
	if !ok {
		t.Fatal("projection declined the refreshed selection")
	}
	rows = append(rows, []int64{200, 7, 7})
	rows = append(rows[:sel[0]:sel[0]], rows[sel[0]+1:]...)
	if want := wantProjection(rows, 100, 5000, 0, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("projection after insert and delete diverges from oracle")
	}
	if st := g.Snapshot(); st.Builds != 1 || st.Declines != 2 {
		t.Fatalf("builds %d, declines %d, want 1 and 2", st.Builds, st.Declines)
	}
}

func TestBudgetEviction(t *testing.T) {
	ct, rows := buildTable(t, 500, 4)
	g := NewRegistry(1, liveOf(ct)) // room for exactly one payload vector
	for q := 0; q < 6; q++ {
		attr, col := "a", 1
		if q%2 == 1 {
			attr, col = "b", 2
		}
		got, ok := project(t, g, ct, 0, 10_000, "k", attr)
		if !ok {
			t.Fatalf("projection %d declined", q)
		}
		if want := wantProjection(rows, 0, 10_000, 0, col); !reflect.DeepEqual(got, want) {
			t.Fatalf("projection %d (%s) diverges after eviction churn", q, attr)
		}
	}
	st := g.Snapshot()
	if st.Pays != 1 {
		t.Fatalf("pays = %d, want 1 (budget)", st.Pays)
	}
	if st.Evictions != 5 {
		t.Fatalf("evictions = %d, want 5 (alternating a/b under budget 1)", st.Evictions)
	}
	// A projection needing more vectors than the budget declines.
	if _, ok := project(t, g, ct, 0, 10_000, "a", "b"); ok {
		t.Fatal("over-budget projection served")
	}
	if _, ok := project(t, g, ct, 0, 10_000, "a", "b"); ok {
		t.Fatal("over-budget projection served")
	}
	// Budget 0 disables outright, and frees what was live.
	g.SetBudget(0)
	if _, ok := project(t, g, ct, 0, 10_000, "k"); ok {
		t.Fatal("disabled registry served a projection")
	}
	if st := g.Snapshot(); st.Pays != 0 || st.Sets != 0 {
		t.Fatalf("disabled registry still counts %d pays on %d columns", st.Pays, st.Sets)
	}
}

// TestCensusFollowsColumns: the budgeted quantity is what live columns
// hold, whoever dropped or replaced them.
func TestCensusFollowsColumns(t *testing.T) {
	ct, rows := buildTable(t, 800, 12)
	held := []*core.CrackedTable{ct}
	g := NewRegistry(DefaultBudget, func() []*core.CrackedTable { return held })
	serve := func(when string) {
		t.Helper()
		got, ok := project(t, g, ct, 1000, 6000, "a", "b")
		if !ok || !reflect.DeepEqual(got, wantProjection(rows, 1000, 6000, 1, 2)) {
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
	if _, ok := project(t, g, ct, 1000, 6000, "a", "b"); ok {
		t.Fatal("a wrapper the store no longer holds was handed payloads")
	}
	if st := g.Snapshot(); st.Builds != 6 {
		t.Fatalf("%d builds after the drop, want 6", st.Builds)
	}
}

// TestExportRestoreRoundTrip: a column's payload names ride its exported
// state; the restored column gathers their vectors back from the rows,
// Adopt hands them to another registry, and that side serves without
// building anything, window for window like the live one. Adopt stamps
// them in their stored least-recently-used-first order, so a tight
// budget evicts the right one.
func TestExportRestoreRoundTrip(t *testing.T) {
	ct, rows := buildTable(t, 3000, 8)
	g := NewRegistry(DefaultBudget, liveOf(ct))
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 30; q++ {
		lo := rng.Int63n(9000)
		if _, ok := project(t, g, ct, lo, lo+700, "k", "b", "a"); !ok {
			t.Fatalf("query %d declined", q)
		}
	}
	if err := ct.AppendColumns([][]int64{{42, 9_999}, {1, 3}, {2, 4}}); err != nil { // pending, with payload values
		t.Fatal(err)
	}
	col, _ := ct.Column("k")
	st, _ := col.TakeState(true)
	if !slices.Equal(st.Pays, []string{"b", "a"}) || len(st.Pending) != 2 {
		t.Fatalf("exported payloads %v and %d pending inserts, want b then a and 2", st.Pays, len(st.Pending))
	}

	// The twin: the same column state under its own wrapper and registry.
	twin := func(st core.ColumnState) (*core.CrackedTable, error) {
		ct2 := core.NewCrackedTable(ct.Base())
		col2, err := ct2.ColumnFromState("k", st)
		if err != nil {
			return nil, err
		}
		return ct2, ct2.ReplaceColumn("k", col2)
	}
	ct2, err := twin(st)
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewRegistry(DefaultBudget, liveOf(ct2))
	g2.Adopt()
	if st := g2.Snapshot(); st.Sets != 1 || st.Pays != 2 {
		t.Fatalf("adopted census = %d/%d, want 1/2", st.Sets, st.Pays)
	}
	rows = append(rows, []int64{42, 1, 2}, []int64{9_999, 3, 4})
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(9000)
		if q == 0 {
			lo = 0 // folds the pending rows
		}
		r := incRange(lo, lo+700)
		_, selA, _ := ct.SelectCopy(r)
		_, selB, _ := ct2.SelectCopy(r)
		a, okA := g.Project(ct, r, []string{"k", "a", "b"}, selA)
		b, okB := g2.Project(ct2, r, []string{"k", "a", "b"}, selB)
		if !okA || !okB {
			t.Fatalf("query %d declined (live %v, restored %v)", q, okA, okB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: restored registry diverges from live (window order)", q)
		}
		if got := sorted(asRows(b)); !reflect.DeepEqual(got, wantProjection(rows, lo, lo+700, 0, 1, 2)) {
			t.Fatalf("query %d: restored projection diverges from oracle", q)
		}
	}
	if b := g2.Snapshot().Builds; b != 0 {
		t.Fatalf("restored registry gathered %d payload vectors, want 0", b)
	}

	// Stored least recently used first: under a budget of one, b goes.
	ct3, err := twin(st)
	if err != nil {
		t.Fatal(err)
	}
	g3 := NewRegistry(1, liveOf(ct3))
	g3.Adopt()
	col3, _ := ct3.Column("k")
	if live := col3.Payloads(); len(live) != 1 || live[0].Attr != "a" {
		t.Fatalf("budget 1 kept %+v, want the most recently used payload a", live)
	}

	// States that do not describe the column are refused, never attached.
	bad := func(name string, mutate func(*core.ColumnState)) {
		t.Helper()
		st := st
		st.Pays = slices.Clone(st.Pays)
		mutate(&st)
		if _, err := twin(st); err == nil {
			t.Fatalf("%s: restored", name)
		}
	}
	bad("duplicate attribute", func(st *core.ColumnState) { st.Pays[1] = st.Pays[0] })
	bad("the column's own attribute", func(st *core.ColumnState) { st.Pays[0] = "k" })
	bad("unknown attribute", func(st *core.ColumnState) { st.Pays[0] = "zz" })
}

// TestConcurrentProjectObserve runs, on one key column under the race
// detector, everything that can touch its payload vectors at once:
// selections that crack it (what the registry used to be told about, and
// now never sees), counts, projections that build, read and stamp,
// appends and deletes that fold, and a budget of one vector over two
// payload attributes that keeps evicting. Every served projection must
// be the selection it was asked for.
func TestConcurrentProjectObserve(t *testing.T) {
	ct, _ := buildTable(t, 2000, 11)
	g := NewRegistry(1, liveOf(ct))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			k := int64(i * 13 % 10_000)
			if err := ct.AppendColumns([][]int64{{k}, {k % 1000}, {-k}}); err != nil {
				t.Error(err)
				return
			}
			if i%5 == 4 {
				_, doomed, _ := ct.SelectCopy(incRange(k, k+3))
				ct.DeleteOIDs(doomed)
			}
		}
	}()
	attrSets := [][]string{{"k", "a"}, {"b"}, {"a", "b"}, {"k"}}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				lo := rng.Int63n(9000)
				r := incRange(lo, lo+500)
				if i%3 == 0 {
					if _, err := ct.CountRange(r); err != nil {
						t.Error(err)
					}
					continue
				}
				keys, sel, err := ct.SelectCopy(r)
				if err != nil {
					t.Error(err)
					return
				}
				attrs := append([]string{"k"}, attrSets[i%len(attrSets)]...)
				wins, ok := g.Project(ct, r, attrs, sel)
				if !ok {
					continue // over budget, or the writer got in between: the store would fetch through the base
				}
				got := append([]int64(nil), wins[0]...)
				want := append([]int64(nil), keys...)
				sortInt64s(got)
				sortInt64s(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("projection of [%d,%d] served other keys than its selection", lo, lo+500)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st := g.Snapshot(); st.Pays > 1 || st.Evictions == 0 || st.Projections == 0 {
		t.Fatalf("budget 1 over two payload attributes in rotation: %+v", st)
	}
}

func sortInt64s(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }
