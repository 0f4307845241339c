package crackdb_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"crackdb"
	"crackdb/internal/workload"
)

// The batch oracle: SelectBatch must answer exactly like the scalar
// path. With PreserveOrder the batched store and a twin store driven by
// sequential Selects execute the identical predicate sequence over the
// identical data, so their cracked arrays — and therefore the answers,
// values and oids in physical order — must match element for element.
// The default (sorted-bound) mode may execute in a different order, so
// it is held to multiset equality per predicate. Both are checked for
// every strategy × workload pattern, with sideways cracking on and off,
// with and without piece fusion, and with inserts landing mid-stream
// between batches.
func TestSelectBatchOracle(t *testing.T) {
	for _, strat := range []string{"standard", "ddc", "ddr", "mdd1r"} {
		for _, sideways := range []bool{false, true} {
			for _, pat := range workload.Patterns() {
				for _, maxPieces := range []int{0, 24} {
					name := fmt.Sprintf("%s/%s/sideways=%v", strat, pat, sideways)
					if maxPieces > 0 {
						name += fmt.Sprintf("/maxpieces=%d", maxPieces)
					}
					t.Run(name, func(t *testing.T) { batchOracle(t, strat, pat, sideways, maxPieces) })
				}
			}
		}
	}
}

// batchOracle runs one configuration of TestSelectBatchOracle. Every
// round re-sends the previous round's new ranges interleaved with its
// own, so a batch on a clean column mixes hits on converged cuts with
// misses that crack — and, under fusion, a miss can fuse away the cut a
// hit in the same batch was answered from. Inserts land after every
// other round, so the batch that follows finds them pending.
func batchOracle(t *testing.T, strat string, pat workload.Pattern, sideways bool, maxPieces int) {
	const (
		n         = 3000
		domain    = 3000
		batchSize = 16
		rounds    = 6
	)
	mk := func() *crackdb.Store {
		s := crackdb.New()
		s.SetMaxPieces(maxPieces)
		if err := s.SetCrackStrategy(strat, 99); err != nil {
			t.Fatal(err)
		}
		if sideways {
			s.SetSidewaysBudget(4)
		}
		if err := s.CreateTable("ev", "v", "aux"); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{rng.Int63n(domain), int64(i)}
		}
		if err := s.InsertRows("ev", rows); err != nil {
			t.Fatal(err)
		}
		return s
	}
	seqStore, ordStore, sortStore := mk(), mk(), mk()

	gen, err := workload.New(pat, workload.Config{
		Domain: domain, Count: rounds * batchSize,
		Selectivity: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := gen.Queries()
	insRNG := rand.New(rand.NewSource(5))

	var prev []crackdb.Range
	for r := 0; r < rounds; r++ {
		fresh := make([]crackdb.Range, batchSize)
		for i, q := range queries[r*batchSize : (r+1)*batchSize] {
			fresh[i] = crackdb.Range{Low: q.Lo, High: q.Hi - 1}
		}
		ranges := make([]crackdb.Range, 0, len(prev)+batchSize)
		for i := range fresh {
			if i < len(prev) {
				ranges = append(ranges, prev[i])
			}
			ranges = append(ranges, fresh[i])
		}
		prev = fresh

		seqRes := make([]*crackdb.Result, len(ranges))
		for i, rg := range ranges {
			res, err := seqStore.Select("ev", "v", rg.Low, rg.High)
			if err != nil {
				t.Fatal(err)
			}
			seqRes[i] = res
		}
		ordRes, err := ordStore.SelectBatch("ev", "v", ranges, crackdb.PreserveOrder())
		if err != nil {
			t.Fatal(err)
		}
		sortRes, err := sortStore.SelectBatch("ev", "v", ranges)
		if err != nil {
			t.Fatal(err)
		}
		if len(ordRes) != len(ranges) || len(sortRes) != len(ranges) {
			t.Fatalf("round %d: batch returned %d/%d results, want %d",
				r, len(ordRes), len(sortRes), len(ranges))
		}

		for i := range ranges {
			want := seqRes[i].Values()
			got := ordRes[i].Values()
			if len(got) != len(want) {
				t.Fatalf("round %d range %d: ordered batch %d values, sequential %d",
					r, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d range %d value %d: ordered batch %d, sequential %d",
						r, i, j, got[j], want[j])
				}
			}
			wantOIDs, gotOIDs := seqRes[i].OIDs(), ordRes[i].OIDs()
			for j := range wantOIDs {
				if gotOIDs[j] != wantOIDs[j] {
					t.Fatalf("round %d range %d oid %d: ordered batch %d, sequential %d",
						r, i, j, gotOIDs[j], wantOIDs[j])
				}
			}
			// Sorted-bound mode: same multiset per predicate.
			ws := append([]int64(nil), want...)
			gs := append([]int64(nil), sortRes[i].Values()...)
			sort.Slice(ws, func(a, b int) bool { return ws[a] < ws[b] })
			sort.Slice(gs, func(a, b int) bool { return gs[a] < gs[b] })
			if len(gs) != len(ws) {
				t.Fatalf("round %d range %d: sorted batch %d values, sequential %d",
					r, i, len(gs), len(ws))
			}
			for j := range ws {
				if gs[j] != ws[j] {
					t.Fatalf("round %d range %d sorted value %d: batch %d, sequential %d",
						r, i, j, gs[j], ws[j])
				}
			}
		}

		// CountBatch agrees with the sizes the selects saw. The
		// sequential twin runs the same counts scalar-wise — for
		// mdd1r even a repeated query re-cracks with a fresh
		// random pivot, so the twins must see identical query
		// sequences to stay byte-identical.
		counts, err := ordStore.CountBatch("ev", "v", ranges, crackdb.PreserveOrder())
		if err != nil {
			t.Fatal(err)
		}
		for i, rg := range ranges {
			seqN, err := seqStore.Count("ev", "v", rg.Low, rg.High)
			if err != nil {
				t.Fatal(err)
			}
			if counts[i] != seqN {
				t.Fatalf("round %d range %d: CountBatch %d, scalar count %d",
					r, i, counts[i], seqN)
			}
			if counts[i] != len(seqRes[i].Values()) {
				t.Fatalf("round %d range %d: CountBatch %d, select size %d",
					r, i, counts[i], len(seqRes[i].Values()))
			}
		}

		// Mid-stream inserts: identical rows land in all three
		// stores between batches, pending until the next query.
		if r%2 == 1 {
			continue
		}
		ins := make([][]int64, 25)
		for i := range ins {
			ins[i] = []int64{insRNG.Int63n(domain), int64(n + r*len(ins) + i)}
		}
		for _, s := range []*crackdb.Store{seqStore, ordStore, sortStore} {
			if err := s.InsertRows("ev", ins); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Degenerate batch shapes must not trip the vector path: empty batch,
// single-element batch, duplicated predicates, inverted (empty) ranges,
// and ranges off both ends of the domain.
func TestSelectBatchEdgeCases(t *testing.T) {
	s := crackdb.New()
	if err := s.CreateTable("ev", "v"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 100)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	if err := s.InsertRows("ev", rows); err != nil {
		t.Fatal(err)
	}

	if res, err := s.SelectBatch("ev", "v", nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	ranges := []crackdb.Range{
		{Low: 10, High: 19},
		{Low: 10, High: 19}, // duplicate
		{Low: 50, High: 40}, // inverted: empty
		{Low: -100, High: -1},
		{Low: 90, High: 5000},
		{Low: 42, High: 42}, // point
	}
	wantN := []int{10, 10, 0, 0, 10, 1}
	for _, opts := range [][]crackdb.BatchOption{nil, {crackdb.PreserveOrder()}} {
		res, err := s.SelectBatch("ev", "v", ranges, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if len(r.Values()) != wantN[i] {
				t.Fatalf("range %d: %d values, want %d", i, len(r.Values()), wantN[i])
			}
		}
		counts, err := s.CountBatch("ev", "v", ranges, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != wantN[i] {
				t.Fatalf("range %d: count %d, want %d", i, c, wantN[i])
			}
		}
	}

	if _, err := s.SelectBatch("missing", "v", ranges); err == nil {
		t.Fatal("SelectBatch on a missing table must fail")
	}
	if _, err := s.CountBatch("ev", "nope", ranges); err == nil {
		t.Fatal("CountBatch on a missing column must fail")
	}
}
