package crackdb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"crackdb"
)

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
