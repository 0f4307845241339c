package crackdb_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crackdb"
	"crackdb/internal/durable"
	"crackdb/internal/oracle"
)

// mutate runs one more round of inserts, counts (which crack) and
// deletes on a loaded store and its model.
func mutate(t *testing.T, s *crackdb.Store, m *oracle.Model, seed int64) {
	t.Helper()
	oracle.Run(t, oracle.New(oracle.Config{Seed: seed, Ops: 30, Domain: 10_000, MaxBatch: 400,
		Mix: oracle.Mix{oracle.Insert: 1, oracle.Count: 5, oracle.Delete: 1}}), m, oracle.Single(s))
}

// saveDelta writes and commits one delta element into dir, failing the
// test if the store turned out clean.
func saveDelta(t *testing.T, s *crackdb.Store, dir string) {
	t.Helper()
	commit, _, err := s.WriteImage(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if commit == nil {
		t.Fatalf("delta into %s: store reports nothing to save", dir)
	}
	commit()
}

// isDirty reports whether a delta element would carry anything, without
// committing it.
func isDirty(t *testing.T, s *crackdb.Store) bool {
	t.Helper()
	commit, _, err := s.WriteImage(filepath.Join(t.TempDir(), "probe"), true)
	if err != nil {
		t.Fatal(err)
	}
	return commit != nil
}

// TestSaveDeltaRequiresBase: a store that never committed a full image
// has nothing to delta against and must refuse rather than write an
// unanchored element — and an image whose swap was never reported as
// landed (no commit) does not count.
func TestSaveDeltaRequiresBase(t *testing.T) {
	s := crackdb.New()
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if _, _, err := s.WriteImage(filepath.Join(root, "uncommitted"), false); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.WriteImage(filepath.Join(root, "d"), true)
	if err == nil || !strings.Contains(err.Error(), "no base image") {
		t.Fatalf("want refusal without a base, got %v", err)
	}
}

// TestDeltaSkipsCleanTables: a delta after touching only one of two
// tables must carry no rows and no column records for the untouched one.
func TestDeltaSkipsCleanTables(t *testing.T) {
	s := crackdb.New()
	for _, name := range []string{"hot", "cold"} {
		if err := s.CreateTable(name, "k", "v"); err != nil {
			t.Fatal(err)
		}
		rows := make([][]int64, 2000)
		for i := range rows {
			rows[i] = []int64{int64(i * 3 % 5000), int64(i)}
		}
		if err := s.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Count(name, "k", 100, 4000); err != nil {
			t.Fatal(err)
		}
	}
	root := t.TempDir()
	base := filepath.Join(root, "base")
	if err := s.Save(base); err != nil {
		t.Fatal(err)
	}
	if isDirty(t, s) {
		t.Fatal("store reports dirty immediately after a full save")
	}
	// Observing a column that was never filtered on creates no state for
	// the next delta to carry.
	if _, err := s.Stats("cold", "v"); err != nil {
		t.Fatal(err)
	}
	if isDirty(t, s) {
		t.Fatal("Stats on an uncracked column dirtied the store")
	}
	// Crack only "hot" (queries reorganize; no inserts needed).
	for lo := int64(0); lo < 4000; lo += 250 {
		if _, err := s.Count("hot", "k", lo, lo+200); err != nil {
			t.Fatal(err)
		}
	}
	d := filepath.Join(root, "d")
	saveDelta(t, s, d) // fails if cracking did not mark the store dirty
	img, _, err := durable.ReadImage(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range img.Tables {
		if it.Name == "cold" && it.Vals != nil {
			t.Fatalf("delta carries rows [%d, %d) of the untouched table", it.From, it.Rows)
		}
	}
	for _, cs := range img.Columns {
		if cs.Table == "cold" {
			t.Fatalf("delta carries column %s of the untouched table", cs.Attr)
		}
	}
	// And the chain still reopens to the full two-table store.
	re, err := crackdb.Open(base, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hot", "cold"} {
		n, err := re.NumRows(name)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2000 {
			t.Fatalf("table %s reopened with %d rows, want 2000", name, n)
		}
	}
}

// TestDeltaCatchesDropRecreate: dropping a table and recreating it with
// the identical schema and row count but different values must read as
// dirty and land the new data in the next delta — shape equality alone
// must never pass a recreated table off as the one the base captured.
func TestDeltaCatchesDropRecreate(t *testing.T) {
	s := crackdb.New()
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 1000)
	for i := range rows {
		rows[i] = []int64{int64(i), 1}
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	base := filepath.Join(root, "base")
	if err := s.Save(base); err != nil {
		t.Fatal(err)
	}

	// Same name, same schema, same row count — values shifted.
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i] = []int64{int64(i) + 100_000, 2}
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	// saveDelta fails if drop+recreate into an identical shape reads as
	// clean.
	d := filepath.Join(root, "d")
	saveDelta(t, s, d)
	re, err := crackdb.Open(base, d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := re.Count("t", "k", 100_000, 100_999)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("chain reopen serves %d rows of the recreated table, want 1000 (old data survived)", n)
	}
}

// TestDeltaChainRefusals: a chain missing its base, with elements out
// of order, or with a corrupted element must refuse to open — never
// silently serve partial or cold state.
func TestDeltaChainRefusals(t *testing.T) {
	live, m := loaded(t, "standard", 7)
	root := t.TempDir()
	base := filepath.Join(root, "base")
	if err := live.Save(base); err != nil {
		t.Fatal(err)
	}
	mutate(t, live, m, 601)
	d1 := filepath.Join(root, "d1")
	saveDelta(t, live, d1)
	mutate(t, live, m, 602)
	d2 := filepath.Join(root, "d2")
	saveDelta(t, live, d2)

	t.Run("missing base", func(t *testing.T) {
		_, err := crackdb.Open(d1, d2)
		if err == nil || !strings.Contains(err.Error(), "chain") {
			t.Fatalf("want refusal of a chain that starts at a delta, got %v", err)
		}
	})
	t.Run("base mid-chain", func(t *testing.T) {
		_, err := crackdb.Open(base, d1, base)
		if err == nil || !strings.Contains(err.Error(), "chain") {
			t.Fatalf("want refusal of a base in delta position, got %v", err)
		}
	})
	t.Run("wrong base", func(t *testing.T) {
		other := filepath.Join(root, "other")
		if err := live.Save(other); err != nil {
			t.Fatal(err)
		}
		_, err := crackdb.Open(other, d1, d2)
		if err == nil || !strings.Contains(err.Error(), "chain") {
			t.Fatalf("want chain-link refusal on a foreign base, got %v", err)
		}
	})
	t.Run("out of order", func(t *testing.T) {
		_, err := crackdb.Open(base, d2, d1)
		if err == nil || !strings.Contains(err.Error(), "chain") {
			t.Fatalf("want chain-link refusal, got %v", err)
		}
	})
	t.Run("corrupt element", func(t *testing.T) {
		bad := filepath.Join(root, "bad")
		data, err := os.ReadFile(d2)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = crackdb.Open(base, d1, bad)
		if err == nil {
			t.Fatal("corrupted delta element opened without error")
		}
	})
	t.Run("retired strategy", func(t *testing.T) {
		// An image whose column record names a strategy this build no
		// longer has is refused, naming the column and the strategy; the
		// column is never switched to another one silently.
		old, _ := loaded(t, "ddr", 7)
		path := filepath.Join(root, "retired")
		if err := old.Save(path); err != nil {
			t.Fatal(err)
		}
		img, _, err := durable.ReadImage(path)
		if err != nil {
			t.Fatal(err)
		}
		col := ""
		for _, cs := range img.Columns {
			if cs.State.Strategy != nil && cs.State.Strategy.Name == "ddr" {
				cs.State.Strategy.Name, col = "mdd1r", cs.Table+"."+cs.Attr
				break
			}
		}
		if col == "" {
			t.Fatal("the saved image holds no ddr column record")
		}
		if _, err := durable.WriteImage(path, img); err != nil {
			t.Fatal(err)
		}
		_, err = crackdb.Open(path)
		if err == nil || !strings.Contains(err.Error(), col) || !strings.Contains(err.Error(), `"mdd1r"`) {
			t.Fatalf("want a refusal naming %s and mdd1r, got %v", col, err)
		}
	})
	// The intact chain still opens after all that.
	if _, err := crackdb.Open(base, d1, d2); err != nil {
		t.Fatal(err)
	}
}

// TestSidewaysFollowsChain: a map rides every chain element that carries
// its key column — whole, or as a patch of the granules one crack wrote
// over the whole records before it — so the chain's tip reopens with the
// live store's payload vectors — none gathered again, nothing fetched
// through the base — and the budgeted count is what the columns standing
// at the end hold, not a sum over every column an element replaced on
// the way.
func TestSidewaysFollowsChain(t *testing.T) {
	live, m := loaded(t, "standard", 61)
	project := func(s *crackdb.Store, lo, hi int64) [][]int64 {
		t.Helper()
		res, err := s.Select("t", "k", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Rows("k", "a")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	root := t.TempDir()
	base, d1, d2, d3 := filepath.Join(root, "base"), filepath.Join(root, "d1"), filepath.Join(root, "d2"), filepath.Join(root, "d3")
	project(live, 1000, 3000)
	if err := live.Save(base); err != nil {
		t.Fatal(err)
	}
	mutate(t, live, m, 503) // rows, tombstones and cuts move: d1 rebuilds the wrapper
	project(live, 4000, 6000)
	saveDelta(t, live, d1)
	for lo := int64(0); lo < 9000; lo += 450 { // cuts only: d2 replaces the key column in place
		project(live, lo, lo+200)
	}
	saveDelta(t, live, d2)
	project(live, 2100, 2150) // one crack: d3 patches the key column and its payload
	saveDelta(t, live, d3)
	if img, _, err := durable.ReadImage(d3); err != nil || len(img.Columns) != 1 ||
		!img.Columns[0].State.Patch || len(img.Columns[0].State.Pays) != 1 {
		t.Fatalf("d3 is not one patched column carrying its payload: %v", err)
	}

	chain, err := crackdb.Open(base, d1, d2, d3)
	if err != nil {
		t.Fatal(err)
	}
	if st, want := chain.SidewaysStats(), live.SidewaysStats(); st.Pays != want.Pays || st.Sets != want.Sets || st.Pays != 1 || st.Declines != 0 {
		t.Fatalf("chain reopened with %+v, live store has %+v", st, want)
	}
	if got, want := project(chain, 2000, 2800), project(live, 2000, 2800); !reflect.DeepEqual(got, want) {
		t.Fatal("chain projection diverges from live (alignment lost)")
	} else if len(got) != m.Count("t", "k", 2000, 2800) {
		t.Fatalf("chain projection has %d rows, oracle %d", len(got), m.Count("t", "k", 2000, 2800))
	}
	if fetched, _ := chain.FetchedTuples("t"); fetched != 0 || chain.SidewaysStats().Builds != 0 {
		t.Fatalf("chain projection fetched %d tuples and gathered %d payload vectors, want 0 and 0",
			fetched, chain.SidewaysStats().Builds)
	}
	if err := chain.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if st := chain.SidewaysStats(); st.Pays != 0 || st.Sets != 0 {
		t.Fatalf("a dropped table still counts %d payload vectors", st.Pays)
	}
}

// TestDeltaChainUnderConcurrentQueries: delta elements written while other
// goroutines crack and insert reopen to the store as it stood at the last
// one, value for value in physical order: a query that marks a granule
// while an element takes the marks lands in the next element, never in
// none.
func TestDeltaChainUnderConcurrentQueries(t *testing.T) {
	const n = 20_000
	s := crackdb.New()
	if err := s.LoadTapestry("t", n, 2, 1); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dirs := []string{filepath.Join(root, "base")}
	if err := s.Save(dirs[0]); err != nil {
		t.Fatal(err)
	}
	// The queries run until the loop below has committed the elements the
	// test asserts, not only for a fixed count: on a fast box 400 queries
	// each can finish before the first element lands.
	var elements atomic.Int64
	elements.Store(int64(len(dirs)))
	var wg sync.WaitGroup
	for g, col := range []string{"c0", "c1"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400 || elements.Load() < 3; i++ {
				lo := 1 + rng.Int63n(n)
				if _, err := s.Count("t", col, lo, lo+int64(rng.Intn(500))); err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 {
					k := rng.Int63n(2 * n)
					if err := s.InsertRows("t", [][]int64{{k, -k}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for last := false; !last; {
		select {
		case <-done:
			last = true // one more element: whatever the queries left
		default:
		}
		d := filepath.Join(root, fmt.Sprint(len(dirs)))
		commit, _, err := s.WriteImage(d, true)
		if err != nil {
			t.Fatal(err)
		}
		if commit != nil {
			commit()
			dirs = append(dirs, d)
			elements.Store(int64(len(dirs)))
		}
	}
	if len(dirs) < 3 {
		t.Fatalf("only %d delta elements landed beside the queries", len(dirs)-1)
	}
	re, err := crackdb.Open(dirs[0], dirs[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"c0", "c1"} {
		a, err := s.Select("t", col, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := re.Select("t", col, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Values(), b.Values()) {
			t.Fatalf("%s reopened from %d elements differs from the live column", col, len(dirs)+1)
		}
		sa, _ := s.Stats("t", col)
		sb, _ := re.Stats("t", col)
		if sa.Pieces != sb.Pieces {
			t.Fatalf("%s reopened with %d pieces, live %d", col, sb.Pieces, sa.Pieces)
		}
	}
}
