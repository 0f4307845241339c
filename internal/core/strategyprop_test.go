// Property tests for the strategy subsystem, extending property_test.go
// across every crack strategy. They live in package core_test so
// they can import internal/strategy and internal/workload (both of
// which import core) without a cycle.
//
// Pinned guarantees, for every strategy and every workload pattern:
//
//  1. answer correctness: every cracked Select equals a brute-force
//     oracle over the base data;
//  2. partition invariant: after any crack sequence the registered cuts
//     form a valid partition — pieces tile [0, n) and every element is
//     on the correct side of every cut (Column.Verify);
//  3. loss-less cracking: the (oid, value) multiset is preserved;
//  4. concurrency: the invariants hold under parallel Selects (-race).
package core_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"crackdb/internal/core"
	"crackdb/internal/strategy"
	"crackdb/internal/workload"
)

func randomBase(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(int64(n))
	}
	return vals
}

func oracleSelect(base []int64, lo, hi int64, loIncl, hiIncl bool) []int64 {
	var out []int64
	for _, v := range base {
		okLo := v > lo || (loIncl && v == lo)
		okHi := v < hi || (hiIncl && v == hi)
		if okLo && okHi {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedVals(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPartition asserts the cracker index pieces tile [0, n).
func checkPartition(t *testing.T, c *core.Column, n int) {
	t.Helper()
	pos := 0
	for _, p := range c.Index().Pieces(n) {
		if p[0] != pos || p[1] < p[0] {
			t.Fatalf("pieces do not tile: %v at pos %d", p, pos)
		}
		pos = p[1]
	}
	if pos != n {
		t.Fatalf("pieces end at %d, want %d", pos, n)
	}
}

func TestStrategiesMatchOracleAcrossWorkloads(t *testing.T) {
	const n = 4000
	base := randomBase(n, 11)
	for _, sName := range strategy.Names() {
		for _, pattern := range workload.Patterns() {
			t.Run(sName+"/"+string(pattern), func(t *testing.T) {
				st, err := strategy.New(sName, 23)
				if err != nil {
					t.Fatal(err)
				}
				col := core.NewColumn("a", base, core.WithStrategy(st))
				gen, err := workload.New(pattern, workload.Config{
					Domain: n, Count: 150, Selectivity: 0.04, Seed: 31,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; ; i++ {
					q, ok := gen.Next()
					if !ok {
						break
					}
					got := sortedVals(col.Select(q.Lo, q.Hi, true, false).Values())
					want := oracleSelect(base, q.Lo, q.Hi, true, false)
					if !equalI64(got, want) {
						t.Fatalf("query %d [%d,%d): got %d tuples, oracle %d",
							i, q.Lo, q.Hi, len(got), len(want))
					}
					if err := col.Verify(); err != nil {
						t.Fatalf("after query %d: %v", i, err)
					}
					checkPartition(t, col, n)
				}
				// Loss-less: the (oid, value) multiset survived.
				byOID := col.ByOID()
				if len(byOID) != n {
					t.Fatalf("ByOID lost tuples: %d != %d", len(byOID), n)
				}
				for oid, v := range byOID {
					if base[int(oid)] != v {
						t.Fatalf("oid %d carries %d, want %d", oid, v, base[int(oid)])
					}
				}
			})
		}
	}
}

// Mixed inclusivities, empty ranges, open-ended ranges, duplicates-heavy
// domains — the corners the workload generator doesn't exercise.
func TestStrategiesOracleEdgeCases(t *testing.T) {
	const n = 2500
	rng := rand.New(rand.NewSource(5))
	base := make([]int64, n)
	for i := range base {
		base[i] = rng.Int63n(40) // heavy duplication
	}
	for _, sName := range strategy.Names() {
		t.Run(sName, func(t *testing.T) {
			st, err := strategy.New(sName, 3)
			if err != nil {
				t.Fatal(err)
			}
			col := core.NewColumn("a", base, core.WithStrategy(st))
			qrng := rand.New(rand.NewSource(9))
			for q := 0; q < 200; q++ {
				lo := qrng.Int63n(45) - 2
				hi := lo + qrng.Int63n(12) - 2 // sometimes inverted/empty
				loIncl, hiIncl := qrng.Intn(2) == 0, qrng.Intn(2) == 0
				got := sortedVals(col.Select(lo, hi, loIncl, hiIncl).Values())
				want := oracleSelect(base, lo, hi, loIncl, hiIncl)
				if !equalI64(got, want) {
					t.Fatalf("%s: Select(%d,%d,%v,%v) got %d, want %d",
						sName, lo, hi, loIncl, hiIncl, len(got), len(want))
				}
				if err := col.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// Strategies must survive interleaved updates: pending inserts and
// deletes consolidate on the next query, resetting the index; the
// strategy then rebuilds its data-driven cuts from scratch.
func TestStrategiesWithUpdates(t *testing.T) {
	const n = 2000
	base := randomBase(n, 77)
	for _, sName := range strategy.Names() {
		t.Run(sName, func(t *testing.T) {
			st, err := strategy.New(sName, 13)
			if err != nil {
				t.Fatal(err)
			}
			col := core.NewColumn("a", base, core.WithStrategy(st))
			live := append([]int64(nil), base...)
			rng := rand.New(rand.NewSource(15))
			for round := 0; round < 20; round++ {
				for i := 0; i < 10; i++ {
					v := rng.Int63n(n)
					col.Insert(v)
					live = append(live, v)
				}
				lo := rng.Int63n(n)
				hi := lo + rng.Int63n(200)
				got := sortedVals(col.Select(lo, hi, true, true).Values())
				want := oracleSelect(live, lo, hi, true, true)
				if !equalI64(got, want) {
					t.Fatalf("%s round %d: got %d, want %d", sName, round, len(got), len(want))
				}
				if err := col.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// Concurrent Selects with strategies active must stay race-free and
// preserve the invariants (run with -race). Each column owns its
// strategy instance; the RNG inside is guarded by the column lock.
func TestStrategyConcurrentSelects(t *testing.T) {
	const n = 20000
	base := randomBase(n, 99)
	for _, sName := range []string{"ddr"} {
		t.Run(sName, func(t *testing.T) {
			st, err := strategy.New(sName, 1)
			if err != nil {
				t.Fatal(err)
			}
			col := core.NewColumn("a", base, core.WithStrategy(st))
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					grng := rand.New(rand.NewSource(seed))
					for q := 0; q < 40; q++ {
						lo := grng.Int63n(n)
						vals, _ := col.SelectCopy(lo, lo+grng.Int63n(500), true, false)
						_ = vals
					}
				}(int64(g))
			}
			wg.Wait()
			if err := col.Verify(); err != nil {
				t.Fatal(err)
			}
			got := sortedVals(col.Select(100, 700, true, true).Values())
			want := oracleSelect(base, 100, 700, true, true)
			if !equalI64(got, want) {
				t.Fatal("post-concurrency answer diverges from oracle")
			}
		})
	}
}
