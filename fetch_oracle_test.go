package crackdb_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crackdb"
	"crackdb/internal/core"
	"crackdb/internal/workload"
)

// The cross-layer fetch oracle (ISSUE 5 satellite): for every crack
// strategy × every workload pattern × sideways cracking on and off, the
// public Select + Rows path must return exactly the tuples a naive scan
// of the logical table contents returns — byte-identical after
// canonical ordering (row order is physical and unspecified). The
// stream interleaves mid-batch inserts with deletes by key and by key
// range, rotates projections across three payload attributes under a
// budget of two vectors (forcing map eviction and rebuild), and runs
// clean under -race.

type oracleTable struct {
	rows [][]int64 // logical contents: k, a, b, c
}

func (o *oracleTable) project(lo, hi int64, cols []int) [][]int64 {
	var out [][]int64
	for _, r := range o.rows {
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

// delete drops the rows with lo <= k <= hi and reports how many went.
func (o *oracleTable) delete(lo, hi int64) int {
	kept := o.rows[:0:0]
	for _, r := range o.rows {
		if r[0] < lo || r[0] > hi {
			kept = append(kept, r)
		}
	}
	n := len(o.rows) - len(kept)
	o.rows = kept
	return n
}

func canonicalRows(rows [][]int64) [][]int64 {
	cp := make([][]int64, len(rows))
	for i, r := range rows {
		cp[i] = append([]int64(nil), r...)
	}
	core.SortRows(cp)
	if len(cp) == 0 {
		return nil
	}
	return cp
}

func TestFetchOracle(t *testing.T) {
	const (
		domain  = 10_000
		initial = 2500
		queries = 36
	)
	colIdx := map[string]int{"k": 0, "a": 1, "b": 2, "c": 3}
	// Rotating projections: different widths, with and without the key
	// column, cycling over three payloads so a budget of two vectors
	// keeps evicting.
	projections := [][]string{
		{"a", "b"},
		{"k", "b"},
		{"c"},
		{"k", "a", "c"},
		{"b", "c"},
	}
	for _, strat := range []string{"standard", "ddc", "ddr", "mdd1r"} {
		for _, pattern := range workload.Patterns() {
			for _, sideways := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/sideways=%v", strat, pattern, sideways)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					s := crackdb.New()
					if !sideways {
						s.SetSidewaysBudget(0)
					} else {
						s.SetSidewaysBudget(2) // force LRU eviction churn
					}
					if strat != "standard" {
						if err := s.SetCrackStrategy(strat, 42); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.CreateTable("t", "k", "a", "b", "c"); err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(len(strat)) + int64(len(pattern))))
					oracle := &oracleTable{}
					batch := func(n int) [][]int64 {
						rows := make([][]int64, n)
						for i := range rows {
							rows[i] = []int64{rng.Int63n(domain), rng.Int63n(500), rng.Int63n(500), rng.Int63n(500)}
						}
						oracle.rows = append(oracle.rows, rows...)
						return rows
					}
					if err := s.InsertRows("t", batch(initial)); err != nil {
						t.Fatal(err)
					}

					gen, err := workload.New(pattern, workload.Config{
						Domain: domain, Count: queries, Selectivity: 0.08, Seed: 7,
					})
					if err != nil {
						t.Fatal(err)
					}
					for q := 0; ; q++ {
						wq, ok := gen.Next()
						if !ok {
							break
						}
						lo, hi := wq.Lo, wq.Hi-1 // generator emits [Lo, Hi); Select is inclusive
						res, err := s.Select("t", "k", lo, hi)
						if err != nil {
							t.Fatal(err)
						}
						proj := projections[q%len(projections)]
						idx := make([]int, len(proj))
						for i, c := range proj {
							idx[i] = colIdx[c]
						}
						want := oracle.project(lo, hi, idx)
						if res.Count() != len(want) {
							t.Fatalf("query %d [%d,%d]: count %d, oracle %d", q, lo, hi, res.Count(), len(want))
						}
						got, err := res.Rows(proj...)
						if err != nil {
							t.Fatal(err)
						}
						if cg := canonicalRows(got); !reflect.DeepEqual(cg, canonicalRows(want)) {
							t.Fatalf("query %d [%d,%d] project %v: result diverges from naive scan\ngot  %d rows\nwant %d rows",
								q, lo, hi, proj, len(cg), len(want))
						}
						// Mid-stream inserts and deletes: the next queries must
						// see them, and maps must refuse stale windows for this
						// result.
						if q%6 == 3 {
							if err := s.InsertRows("t", batch(120)); err != nil {
								t.Fatal(err)
							}
							// Alternately a key the result holds and a key range
							// straddling its low end go — landing in the payload
							// vectors the projection above just read.
							dlo, dhi := lo-15, lo+15
							if q%12 == 3 && len(got) > 0 {
								dlo = res.Values()[0]
								dhi = dlo
							}
							gone, err := s.Delete("t", crackdb.Cond{Col: "k", Op: ">=", Val: dlo}, crackdb.Cond{Col: "k", Op: "<=", Val: dhi})
							if err != nil {
								t.Fatal(err)
							}
							if wantGone := oracle.delete(dlo, dhi); gone != wantGone {
								t.Fatalf("query %d: delete [%d,%d] removed %d rows, oracle %d", q, dlo, dhi, gone, wantGone)
							}
							// Re-projecting the pre-update result must still
							// return the tuples it selected exactly (the map
							// declines; the base fetch serves the old OIDs).
							again, err := res.Rows(proj...)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(canonicalRows(again), canonicalRows(want)) {
								t.Fatalf("query %d: re-projection after insert leaked post-select tuples", q)
							}
						}
					}

					st := s.SidewaysStats()
					if sideways {
						if st.Projections == 0 {
							t.Fatal("sideways enabled but no projection was served from maps")
						}
						if st.Evictions == 0 {
							t.Fatal("budget 2 with 3 rotating payloads should have evicted")
						}
					} else if st.Projections != 0 {
						t.Fatalf("sideways disabled but %d projections served from maps", st.Projections)
					}
				})
			}
		}
	}
}

// TestFetchOracleDropRecreate pins the stale-Result guard: a Result
// held across DropTable + CreateTable of the same name must neither
// serve the new table's data nor register a map spine built from the
// old table under the live name (which would poison later projections
// with same-cardinality, different-payload data).
func TestFetchOracleDropRecreate(t *testing.T) {
	s := crackdb.New()
	if err := s.CreateTable("t", "k", "a"); err != nil {
		t.Fatal(err)
	}
	oldRows := make([][]int64, 100)
	for i := range oldRows {
		oldRows[i] = []int64{int64(i), 1000 + int64(i)}
	}
	if err := s.InsertRows("t", oldRows); err != nil {
		t.Fatal(err)
	}
	stale, err := s.Select("t", "k", 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", "k", "a"); err != nil {
		t.Fatal(err)
	}
	newRows := make([][]int64, 100)
	for i := range newRows {
		newRows[i] = []int64{int64(i), 2000 + int64(i)} // same keys, new payloads
	}
	if err := s.InsertRows("t", newRows); err != nil {
		t.Fatal(err)
	}
	// The stale Result answers from its own (old) snapshot.
	got, err := stale.Rows("k", "a")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r[1] < 1000 || r[1] >= 2000 {
			t.Fatalf("stale result leaked new-table payload %v", r)
		}
	}
	// The live table projects its own data — the stale projection must
	// not have registered an old-data spine under the live name.
	fresh, err := s.Select("t", "k", 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := fresh.Rows("k", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("fresh projection has %d rows, want 100", len(rows))
	}
	for _, r := range rows {
		if r[1] != 2000+r[0] {
			t.Fatalf("fresh projection leaked old-table payload %v", r)
		}
	}
}

// TestFetchOracleConcurrent drives, under -race, everything that can
// touch one key column's payload vectors at once: Select+Rows streams
// rotating over two payload attributes under a budget of one vector
// (builds and evictions), scalar counts, and a writer that appends and
// deletes. Every projection must match the selection it came from —
// payloads are functions of the key, so a torn or misaligned window
// shows in any row — or error, never return tuples of another moment.
func TestFetchOracleConcurrent(t *testing.T) {
	s := crackdb.New()
	s.SetSidewaysBudget(1)
	if err := s.CreateTable("t", "k", "a", "b"); err != nil {
		t.Fatal(err)
	}
	row := func(k int64) []int64 { return []int64{k, 3 * k, -k} }
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int64, 4000)
	for i := range rows {
		rows[i] = row(rng.Int63n(10_000))
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			k := int64(i*37) % 10_000
			if err := s.InsertRows("t", [][]int64{row(k)}); err != nil {
				t.Error(err)
				return
			}
			if i%4 == 3 {
				if _, err := s.Delete("t", crackdb.Cond{Col: "k", Op: ">=", Val: k}, crackdb.Cond{Col: "k", Op: "<", Val: k + 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	projections := [][]string{{"k", "a"}, {"k", "b"}, {"k", "a", "b"}} // the last needs two vectors: over budget, base fetch
	workers := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				lo := rng.Int63n(9000)
				if i%4 == 0 {
					if _, err := s.Count("t", "k", lo, lo+400); err != nil {
						workers <- err
						return
					}
					continue
				}
				res, err := s.Select("t", "k", lo, lo+400)
				if err != nil {
					workers <- err
					return
				}
				proj := projections[i%len(projections)]
				got, err := res.Rows(proj...)
				if err != nil {
					workers <- err
					return
				}
				if len(got) != res.Count() {
					workers <- fmt.Errorf("rows %d != count %d", len(got), res.Count())
					return
				}
				for _, r := range got {
					if r[0] < lo || r[0] > lo+400 {
						workers <- fmt.Errorf("row %v outside [%d,%d]", r, lo, lo+400)
						return
					}
					for j, c := range proj[1:] {
						if want := row(r[0])[map[string]int{"a": 1, "b": 2}[c]]; r[1+j] != want {
							workers <- fmt.Errorf("row %v: %s = %d beside key %d, want %d", r, c, r[1+j], r[0], want)
							return
						}
					}
				}
			}
			workers <- nil
		}(int64(w + 10))
	}
	for w := 0; w < 4; w++ {
		if err := <-workers; err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if st := s.SidewaysStats(); st.Pays > 1 || st.Projections == 0 || st.Evictions == 0 {
		t.Fatalf("budget 1 over two payload attributes in rotation: %+v", st)
	}
}
