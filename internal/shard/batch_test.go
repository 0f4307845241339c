package shard_test

import (
	"strconv"
	"testing"

	"crackdb"
	"crackdb/internal/shard"
)

// TestCountBatchRouting: batches on a 4-shard range table mix key
// ranges that visit one, two and all four shards, empty ranges and,
// in a batch of their own, ranges on a non-key column. Each count must
// be the range's CountWhere on a twin router, and
// crackdb_shard_routed_queries_total must rise on each shard by the
// number of the batch's non-empty ranges that visit it.
func TestCountBatchRouting(t *testing.T) {
	const n, shards = 4000, 4
	var st, twin *shard.Store
	for _, s := range []**shard.Store{&st, &twin} {
		*s = shard.New(shard.Options{Shards: shards, Kind: shard.Range})
		if err := (*s).LoadTapestry("t", n, 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	st.EnableObservability(1)
	first := make([]int64, shards) // the lowest key of [1, n] each shard holds
	for k := int64(n); k >= 1; k-- {
		first[shard.RouteKey(st, "t", k)] = k
	}
	for i := 1; i < shards; i++ {
		if first[i] <= first[i-1]+50 {
			t.Fatalf("shards start at keys %v: not a range partition of four", first)
		}
	}
	// lo and hi are the shards a range visits: none when hi < lo.
	type probe struct {
		col    string
		r      crackdb.Range
		lo, hi int
	}
	probes := []probe{
		{"c0", crackdb.Range{Low: first[1] + 5, High: first[1] + 40}, 1, 1},
		{"c1", crackdb.Range{Low: 100, High: 900}, 0, 3},
		{"c0", crackdb.Range{Low: first[2] - 20, High: first[2] + 20}, 1, 2},
		{"c0", crackdb.Range{Low: first[3], High: first[1]}, 0, -1},
		{"c0", crackdb.Range{Low: -50, High: n + 50}, 0, 3},
		{"c1", crackdb.Range{Low: 700, High: 300}, 0, -1},
		{"c0", crackdb.Range{Low: first[3] + 1, High: first[3] + 1}, 3, 3},
		{"c1", crackdb.Range{Low: 1, High: n / 2}, 0, 3},
	}
	routed := func() []float64 {
		fams, ok := st.Gather()
		if !ok {
			t.Fatal("observability is off")
		}
		per := make([]float64, shards)
		for _, f := range fams {
			if f.Name != "crackdb_shard_routed_queries_total" {
				continue
			}
			for _, smp := range f.Samples {
				for _, l := range smp.Labels {
					if i, err := strconv.Atoi(l.Value); l.Key == "shard" && err == nil {
						per[i] = smp.Value
					}
				}
			}
		}
		return per
	}
	for _, col := range []string{"c0", "c1"} {
		var ranges []crackdb.Range
		want := make([]float64, shards)
		for _, p := range probes {
			if p.col != col {
				continue
			}
			ranges = append(ranges, p.r)
			for i := p.lo; i <= p.hi; i++ {
				want[i]++
			}
		}
		before := routed()
		got, err := st.CountBatch("t", col, ranges)
		if err != nil {
			t.Fatal(err)
		}
		after := routed()
		for i, r := range ranges {
			n, err := twin.CountWhere("t", crackdb.Cond{Col: col, Op: ">=", Val: r.Low}, crackdb.Cond{Col: col, Op: "<=", Val: r.High})
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != n {
				t.Errorf("%s range %d %+v: the batch counts %d, CountWhere %d", col, i, r, got[i], n)
			}
		}
		for i := range after {
			if d := after[i] - before[i]; d != want[i] {
				t.Errorf("%s batch: shard %d's routed queries rose by %.0f, want %.0f", col, i, d, want[i])
			}
		}
	}
}
