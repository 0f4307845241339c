package crackdb

import (
	"math/rand"
	"sort"
	"testing"
)

// Store-level strategy wiring: SetCrackStrategy must route every new
// cracker column through the named strategy, answers must stay correct,
// and unknown names must be rejected up front.
func TestStoreSetCrackStrategy(t *testing.T) {
	for _, name := range []string{"standard", "ddc", "ddr", "mdd1r"} {
		t.Run(name, func(t *testing.T) {
			s := New()
			if err := s.SetCrackStrategy(name, 42); err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTable("ev", "a", "b"); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			rows := make([][]int64, 5000)
			want := map[int64]int{}
			for i := range rows {
				a := rng.Int63n(5000)
				rows[i] = []int64{a, a * 2}
				if a >= 100 && a <= 900 {
					want[a]++
				}
			}
			if err := s.InsertRows("ev", rows); err != nil {
				t.Fatal(err)
			}
			res, err := s.Select("ev", "a", 100, 900)
			if err != nil {
				t.Fatal(err)
			}
			got := map[int64]int{}
			for _, v := range res.Values() {
				got[v]++
			}
			if len(got) != len(want) {
				t.Fatalf("distinct values %d, want %d", len(got), len(want))
			}
			for v, n := range want {
				if got[v] != n {
					t.Fatalf("value %d: count %d, want %d", v, got[v], n)
				}
			}
			// Repeated and refined ranges stay correct as cracking
			// (standard) or re-partitioning (mdd1r) continues.
			for q := 0; q < 30; q++ {
				lo := rng.Int63n(4000)
				hi := lo + rng.Int63n(800)
				n, err := s.Count("ev", "a", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				wantN := 0
				for _, r := range rows {
					if r[0] >= lo && r[0] <= hi {
						wantN++
					}
				}
				if n != wantN {
					t.Fatalf("count [%d,%d] = %d, want %d", lo, hi, n, wantN)
				}
			}
		})
	}
	if err := New().SetCrackStrategy("bogus", 1); err == nil {
		t.Fatal("SetCrackStrategy(bogus) accepted")
	}
}

// Save/OpenCold round-trip of a store that was cracked — heavily, on
// several columns, under a stochastic strategy — before Save. A cold
// open intentionally ignores the image's crack state (paper §5.2:
// cracker indexes are not saved between sessions); the data must
// round-trip intact and the reopened store must answer identically from
// scratch.
func TestSaveOpenRoundTripAfterCracking(t *testing.T) {
	s := New()
	if err := s.SetCrackStrategy("ddr", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("m", "k", "v", "w"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rows := make([][]int64, 4000)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(4000), rng.Int63n(1000), int64(i)}
	}
	if err := s.InsertRows("m", rows); err != nil {
		t.Fatal(err)
	}
	// Crack several columns from several angles, including a multi-cond
	// query driving the term planner.
	queries := [][3]int64{{0, 100, 0}, {500, 1500, 0}, {1499, 2600, 0}, {3000, 3999, 0}}
	for _, q := range queries {
		if _, err := s.Select("m", "k", q[0], q[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Select("m", "v", q[0]%1000, q[1]%1000+10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SelectWhere("m", Cond{"k", ">=", 100}, Cond{"v", "<", 500}); err != nil {
		t.Fatal(err)
	}
	before, err := s.Select("m", "k", 500, 1500)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCold(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Cracked state dropped: the reopened store has no cracker columns
	// until a query touches one.
	re.mu.RLock()
	nCracked := len(re.cracked)
	re.mu.RUnlock()
	if nCracked != 0 {
		t.Fatalf("reopened store carries %d cracked tables, want 0", nCracked)
	}

	// Data intact: full table contents identical row-for-row.
	n, err := re.NumRows("m")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("reopened rows %d, want %d", n, len(rows))
	}
	all, err := re.SelectWhere("m")
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := all.Rows("k", "v", "w")
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(gotRows, func(i, j int) bool { return gotRows[i][2] < gotRows[j][2] })
	for i, r := range gotRows {
		if r[0] != rows[i][0] || r[1] != rows[i][1] || r[2] != rows[i][2] {
			t.Fatalf("row %d = %v, want %v", i, r, rows[i])
		}
	}

	// The reopened store answers the same query identically (it
	// re-cracks from scratch as a side effect).
	after, err := re.Select("m", "k", 500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, a := append([]int64(nil), before.Values()...), append([]int64(nil), after.Values()...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	if len(a) != len(b) {
		t.Fatalf("answer sizes differ: %d vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("answer value %d differs: %d vs %d", i, b[i], a[i])
		}
	}
}
