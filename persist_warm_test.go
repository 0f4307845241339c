package crackdb_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crackdb"
	"crackdb/internal/oracle"
)

// loaded is a store cracked by a count-heavy stream with inserts
// mid-way, beside the model that answers for it.
func loaded(t *testing.T, strat string, seed int64) (*crackdb.Store, *oracle.Model) {
	t.Helper()
	s := storeWith(t, strat, seed)
	return s, oracle.Run(t, oracle.New(oracle.Config{Seed: seed, Ops: 60, Load: 6000, Domain: 10_000,
		MaxBatch: 500, Mix: oracle.Mix{oracle.Count: 3, oracle.Insert: 1}}), nil, oracle.Single(s))
}

// TestWarmReopenIsWarm pins the point of the subsystem: the reopened
// store answers a repeat query by index lookup, touching no tuples,
// while a cold reopen pays a partition pass.
func TestWarmReopenIsWarm(t *testing.T) {
	live, _ := loaded(t, "standard", 5)
	// Consolidate pending inserts so the repeat query is a pure lookup.
	if _, err := live.Count("t", "k", 1000, 1800); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "img")
	if err := live.Save(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := crackdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Count("t", "k", 1000, 1800); err != nil {
		t.Fatal(err)
	}
	st, err := warm.Stats("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesTouched != 0 {
		t.Fatalf("warm repeat query touched %d tuples, want 0 (pure index lookup)", st.TuplesTouched)
	}
	cold, err := crackdb.OpenCold(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Count("t", "k", 1000, 1800); err != nil {
		t.Fatal(err)
	}
	cst, err := cold.Stats("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if cst.TuplesTouched == 0 {
		t.Fatal("cold reopen answered without touching tuples — test premise broken")
	}
}

// TestWarmReopenSideways pins the sideways half of warmth (ISSUE 5
// satellite): the aligned cracker maps survive SaveWarm/OpenWarm, and a
// repeat projection on the reopened store touches zero base-table
// tuples and rebuilds zero payload vectors — the projection is served
// entirely from the restored co-cracked windows.
func TestWarmReopenSideways(t *testing.T) {
	for _, strat := range []string{"standard", "ddr"} {
		t.Run(strat, func(t *testing.T) {
			live, m := loaded(t, strat, 23)
			// Converge a projection workload so maps exist and are cracked.
			rng := rand.New(rand.NewSource(3))
			project := func(s *crackdb.Store, lo, hi int64) [][]int64 {
				t.Helper()
				res, err := s.Select("t", "k", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				rws, err := res.Rows("k", "a")
				if err != nil {
					t.Fatal(err)
				}
				return rws
			}
			for i := 0; i < 40; i++ {
				lo := rng.Int63n(9000)
				project(live, lo, lo+rng.Int63n(800)+1)
			}
			if st := live.SidewaysStats(); st.Sets == 0 || st.Pays == 0 || st.Projections == 0 {
				t.Fatalf("projection workload built no maps: %+v", st)
			}

			dir := filepath.Join(t.TempDir(), "img")
			if err := live.Save(dir); err != nil {
				t.Fatal(err)
			}
			warm, err := crackdb.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st := warm.SidewaysStats(); st.Sets == 0 || st.Pays == 0 {
				t.Fatalf("maps did not survive the reopen: %+v", st)
			}

			// The repeat projection: identical rows, zero base fetches,
			// zero payload rebuilds on the warm store.
			liveRows := project(live, 2000, 2800)
			warmRows := project(warm, 2000, 2800)
			if !reflect.DeepEqual(liveRows, warmRows) {
				t.Fatal("warm projection diverges from live (alignment lost)")
			}
			want := m.Count("t", "k", 2000, 2800)
			if len(warmRows) != want {
				t.Fatalf("warm projection has %d rows, oracle %d", len(warmRows), want)
			}
			fetched, err := warm.FetchedTuples("t")
			if err != nil {
				t.Fatal(err)
			}
			if fetched != 0 {
				t.Fatalf("warm projection fetched %d tuples through the base table, want 0", fetched)
			}
			if st := warm.SidewaysStats(); st.Builds != 0 {
				t.Fatalf("warm projection rebuilt %d payload vectors, want 0", st.Builds)
			}
		})
	}
}

// TestAtomicSaveSurvivesCrashedSave: a save that crashed before its
// rename leaves a torn temp file beside the image; the image still
// reopens intact, and the next save goes through.
func TestAtomicSaveSurvivesCrashedSave(t *testing.T) {
	live, m := loaded(t, "standard", 17)
	dir := filepath.Join(t.TempDir(), "img")
	if err := live.Save(dir); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		s, err := crackdb.Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, err := s.Count("t", "k", 0, 10_000)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := m.Count("t", "k", 0, 10_000); got != want {
			t.Fatalf("%s: count %d, want %d", label, got, want)
		}
	}
	check("baseline")

	// Crash while the temp image was being written: a torn temp file sits
	// next to the intact target.
	if err := os.WriteFile(dir+".tmp", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("torn temp file")

	// A second save over the torn temp file still works.
	if err := live.Save(dir); err != nil {
		t.Fatal(err)
	}
	check("resave")
}

// TestFullImageDeterministic: two full saves of an unchanged store must
// be byte-identical — a re-bootstrapping follower reuses
// image files by checksum, so map-ordered tables or columns would make
// it download identical content again. Two tables with two cracked
// columns each give map iteration something to reorder.
func TestFullImageDeterministic(t *testing.T) {
	s := crackdb.New()
	for _, name := range []string{"a", "b"} {
		if err := s.CreateTable(name, "k", "v", "w"); err != nil {
			t.Fatal(err)
		}
		rows := make([][]int64, 500)
		for i := range rows {
			rows[i] = []int64{int64(i * 7 % 500), int64(i * 3 % 100), int64(i)}
		}
		if err := s.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"k", "v", "w"} {
			if _, err := s.Count(name, col, 10, 60); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := t.TempDir()
	read := func(path string) []byte {
		t.Helper()
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := read(filepath.Join(root, "one"))
	for round := 0; round < 8; round++ { // map order is random per iteration
		if again := read(filepath.Join(root, "two")); !bytes.Equal(first, again) {
			t.Fatalf("round %d: two saves of an unchanged store differ", round)
		}
	}
}
