package algebra

import (
	"context"
	"testing"

	"crackdb/internal/relation"
)

// chainTables returns k references to one tapestry table, the paper's
// self-join chain setup ("the tuples form random integer pairs, which
// means we can 'unroll' the reachability relation using lengthy join
// sequences").
func chainTables(t *testing.T, n, k int) []*relation.Table {
	t.Helper()
	base := relation.Tapestry(n, 2, 17)
	tbl, err := relation.FromColumns("R",
		relation.Column{Name: "k", Data: base.MustColumn("c0")},
		relation.Column{Name: "a", Data: base.MustColumn("c1")},
	)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*relation.Table, k)
	for i := range tables {
		tables[i] = tbl
	}
	return tables
}

func TestPlanChainHashJoinWithinBudget(t *testing.T) {
	tables := chainTables(t, 50, 3)
	it, info, err := PlanChain(ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, RowStoreTxn)
	if err != nil {
		t.Fatal(err)
	}
	if info.UsedFallback {
		t.Fatalf("3-way chain fell back (states=%d)", info.StatesExplored)
	}
	if info.JoinAlgorithm != "hash" {
		t.Fatalf("join algorithm = %s", info.JoinAlgorithm)
	}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	// Permutation columns: every value of a finds exactly one k, so the
	// chain preserves cardinality.
	if len(rows) != 50 {
		t.Fatalf("chain produced %d rows, want 50", len(rows))
	}
	// Row width grows with chain length: 2 cols per table.
	if len(rows[0]) != 6 {
		t.Fatalf("row width %d, want 6", len(rows[0]))
	}
}

func TestPlanChainFallbackBeyondBudget(t *testing.T) {
	tables := chainTables(t, 30, 40)
	_, info, err := PlanChain(ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, RowStoreTxn)
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsedFallback {
		t.Fatalf("40-way chain did not exhaust budget (states=%d, budget=%d)",
			info.StatesExplored, RowStoreTxn.OptimizerBudget)
	}
	if info.JoinAlgorithm != "nested-loop" {
		t.Fatalf("fallback algorithm = %s", info.JoinAlgorithm)
	}
}

func TestPlanChainNestedLoopProfile(t *testing.T) {
	tables := chainTables(t, 40, 2)
	it, info, err := PlanChain(ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, RowStoreLite)
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsedFallback || info.JoinAlgorithm != "nested-loop" {
		t.Fatalf("lite profile info = %+v", info)
	}
	rows, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("nested-loop chain produced %d rows, want 40", len(rows))
	}
}

func TestPlanChainValidation(t *testing.T) {
	if _, _, err := PlanChain(ChainSpec{OutCol: "a", InCol: "k"}, RowStoreTxn); err == nil {
		t.Fatal("empty chain accepted")
	}
	bad := relation.New("B", "x")
	if _, _, err := PlanChain(ChainSpec{Tables: []*relation.Table{bad}, OutCol: "a", InCol: "k"}, RowStoreTxn); err == nil {
		t.Fatal("chain with missing join columns accepted")
	}
}

func TestVecChainJoinMatchesVolcano(t *testing.T) {
	for _, k := range []int{1, 2, 5, 9} {
		tables := chainTables(t, 60, k)
		want, info, err := PlanChain(ChainSpec{Tables: tables, OutCol: "a", InCol: "k"}, RowStoreTxn)
		if err != nil {
			t.Fatal(err)
		}
		_ = info
		rows, err := Drain(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := VecChainJoin(context.Background(), tables, "a", "k")
		if err != nil {
			t.Fatal(err)
		}
		if got != len(rows) {
			t.Fatalf("k=%d: vectorized chain = %d rows, Volcano = %d", k, got, len(rows))
		}
	}
}

func TestVecChainJoinPermutationCardinality(t *testing.T) {
	tables := chainTables(t, 500, 64)
	got, err := VecChainJoin(context.Background(), tables, "a", "k")
	if err != nil {
		t.Fatal(err)
	}
	if got != 500 {
		t.Fatalf("64-way chain over permutations = %d rows, want 500", got)
	}
	if _, err := VecChainJoin(context.Background(), nil, "a", "k"); err == nil {
		t.Fatal("empty vectorized chain accepted")
	}
}

func TestExploreChainPlansBudget(t *testing.T) {
	// Small chains fit comfortably; the count grows cubically.
	if got := exploreChainPlans(3, 1<<20); got != 4 {
		// intervals: [0,2): 1 split; [1,3): 1; [0,3): 2 → total 4.
		t.Fatalf("states(3) = %d, want 4", got)
	}
	if got := exploreChainPlans(64, 4096); got < 4096 {
		t.Fatalf("states(64) = %d, should exhaust budget", got)
	}
}
