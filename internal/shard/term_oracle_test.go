package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crackdb"
	"crackdb/internal/shard"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
)

// TestTermPlannerOracle is the planner's correctness property. Random
// conjunctions — one to three columns, every operator, empty and
// inverted ranges, bounds at the domain edges, several conjuncts on one
// column, and the empty conjunction — interleaved with inserts and
// deletes, on a single store and a 4-shard router, under every crack
// strategy (mdd1r leaves its query cuts unregistered) and under the
// auto-tuner: CountWhere, the length of SelectWhere's OIDs and a brute
// force scan of the rows all agree, the selected tuples are the brute
// force's tuples, and the router answers what the single store answers.
func TestTermPlannerOracle(t *testing.T) {
	configs := append(strategy.Names(), "autotune")
	for _, cfg := range configs {
		t.Run(cfg, func(t *testing.T) { runTermOracle(t, cfg) })
	}
}

func runTermOracle(t *testing.T, cfg string) {
	rng := rand.New(rand.NewSource(83))
	cols := []string{"k", "a", "b"}
	colIdx := map[string]int{"k": 0, "a": 1, "b": 2}
	single := crackdb.New()
	sharded := shard.New(shard.Options{Shards: 4, Kind: shard.Hash})
	if cfg == "autotune" {
		tc := tuner.Config{Window: 8, Confirm: 1, Cooldown: 8}
		single.EnableAutotune(tc)
		sharded.EnableAutotune(tc)
	} else {
		if err := single.SetCrackStrategy(cfg, 5); err != nil {
			t.Fatal(err)
		}
		if err := sharded.SetCrackStrategy(cfg, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []crackdb.Backend{single.Backend(), sharded} {
		if err := st.CreateTable("t", cols...); err != nil {
			t.Fatal(err)
		}
	}

	var rows [][]int64 // the model: every live row
	value := func() int64 {
		switch rng.Intn(40) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		default:
			return rng.Int63n(120) - 10
		}
	}
	insert := func(n int) {
		batch := make([][]int64, n)
		for i := range batch {
			batch[i] = []int64{value(), value(), value()}
		}
		rows = append(rows, batch...)
		if err := single.InsertRows("t", batch); err != nil {
			t.Fatal(err)
		}
		if err := sharded.InsertRows("t", batch); err != nil {
			t.Fatal(err)
		}
	}
	ops := []string{"<", "<=", "=", ">=", ">", "<>"}
	randomTerm := func() []crackdb.Cond {
		conds := make([]crackdb.Cond, rng.Intn(5)) // 0..4 conjuncts over 3 columns: repeats happen
		for i := range conds {
			conds[i] = crackdb.Cond{Col: cols[rng.Intn(len(cols))], Op: ops[rng.Intn(len(ops))], Val: value()}
		}
		return conds
	}
	matches := func(row []int64, conds []crackdb.Cond) bool {
		for _, c := range conds {
			v := row[colIdx[c.Col]]
			ok := false
			switch c.Op {
			case "<":
				ok = v < c.Val
			case "<=":
				ok = v <= c.Val
			case "=":
				ok = v == c.Val
			case ">=":
				ok = v >= c.Val
			case ">":
				ok = v > c.Val
			case "<>":
				ok = v != c.Val
			}
			if !ok {
				return false
			}
		}
		return true
	}

	insert(400)
	for step := 0; step < 300; step++ {
		conds := randomTerm()
		what := fmt.Sprintf("step %d %v", step, conds)
		switch rng.Intn(10) {
		case 0:
			insert(1 + rng.Intn(40))
			continue
		case 1:
			// A narrow conjunct first, or the random term empties the table
			// (the empty conjunction deletes everything) within a few steps.
			c, v := cols[rng.Intn(len(cols))], value()
			conds = append([]crackdb.Cond{{Col: c, Op: ">=", Val: v}, {Col: c, Op: "<=", Val: v + 2}}, conds...)
			what = fmt.Sprintf("step %d %v", step, conds)
			var kept [][]int64
			for _, r := range rows {
				if !matches(r, conds) {
					kept = append(kept, r)
				}
			}
			want := len(rows) - len(kept)
			rows = kept
			for name, st := range map[string]crackdb.Backend{"single": single.Backend(), "sharded": sharded} {
				if got, err := st.Delete("t", conds...); err != nil || got != want {
					t.Fatalf("%s: %s Delete = %d, %v; brute force deletes %d", what, name, got, err, want)
				}
			}
			continue
		}

		var want [][]int64
		for _, r := range rows {
			if matches(r, conds) {
				want = append(want, r)
			}
		}
		wantRows := canonical(want)
		res, err := single.SelectWhere("t", conds...)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := len(res.OIDs()); got != len(want) {
			t.Fatalf("%s: SelectWhere returned %d OIDs, brute force %d", what, got, len(want))
		}
		for name, st := range map[string]crackdb.Backend{"single": single.Backend(), "sharded": sharded} {
			n, err := st.CountWhere("t", conds...)
			if err != nil || n != len(want) {
				t.Fatalf("%s: %s CountWhere = %d, %v; brute force %d", what, name, n, err, len(want))
			}
			sel, err := st.SelectWhere("t", conds...)
			if err != nil {
				t.Fatalf("%s: %s: %v", what, name, err)
			}
			got, err := sel.Rows(cols...)
			if err != nil {
				t.Fatalf("%s: %s: %v", what, name, err)
			}
			if sel.Count() != len(want) || canonical(got) != wantRows {
				t.Fatalf("%s: %s SelectWhere returned %d tuples that are not the brute force's %d", what, name, sel.Count(), len(want))
			}
		}
	}

	// An unsatisfiable key constraint reaches no shard, yet an unknown
	// column or operator beside it is still the single store's error.
	for _, conds := range [][]crackdb.Cond{
		{{Col: "k", Op: ">", Val: 5}, {Col: "k", Op: "<", Val: 3}, {Col: "nosuch", Op: "=", Val: 1}},
		{{Col: "k", Op: ">", Val: 5}, {Col: "k", Op: "<", Val: 3}, {Col: "a", Op: "~", Val: 1}},
	} {
		for _, call := range []struct {
			name string
			run  func(st crackdb.Backend) error
		}{
			{"CountWhere", func(st crackdb.Backend) error { _, err := st.CountWhere("t", conds...); return err }},
			{"SelectWhere", func(st crackdb.Backend) error { _, err := st.SelectWhere("t", conds...); return err }},
			{"Delete", func(st crackdb.Backend) error { _, err := st.Delete("t", conds...); return err }},
		} {
			want, got := call.run(single.Backend()), call.run(sharded)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("%v: sharded %s error %v, single store %v", conds, call.name, got, want)
			}
		}
	}
}
