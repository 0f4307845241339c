package crackdb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crackdb"
	"crackdb/internal/oracle"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// Cross-module integration tests: the SQL front-end driving the cracking
// store end to end, and concurrent use of one store.

// TestSQLLevelCrackingScript replays the paper's §5.1 experiment script
// through the SQL engine: a Ξ cracker simulated at the SQL level with two
// SELECT INTO statements, verified loss-less.
func TestSQLLevelCrackingScript(t *testing.T) {
	store := shard.New(shard.Options{})
	eng := sql.NewEngineOn(store)

	if err := store.LoadTapestry("r", 10000, 2, 99); err != nil {
		t.Fatal(err)
	}
	script := `
		SELECT c0, c1 INTO frag001 FROM r WHERE c0 <= 500;
		SELECT c0, c1 INTO frag002 FROM r WHERE c0 > 500;
	`
	for _, stmt := range splitScript(t, script) {
		if _, err := eng.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	n1, err := store.NumRows("frag001")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := store.NumRows("frag002")
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 500 || n2 != 9500 {
		t.Fatalf("fragments %d/%d, want 500/9500 (tapestry is a permutation)", n1, n2)
	}
	// The fragments are themselves queryable — and crackable.
	rs, err := eng.Exec("SELECT COUNT(*) FROM frag001 WHERE c0 BETWEEN 100 AND 199")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != 100 {
		t.Fatalf("fragment count = %d, want 100", rs.Rows[0][0])
	}
}

// splitScript cuts a script into its statements' texts.
func splitScript(t *testing.T, script string) []string {
	t.Helper()
	stmts, err := sql.SplitScript(script)
	if err != nil {
		t.Fatal(err)
	}
	return stmts
}

// TestSQLAggregationOverCrackedStore: SQL's GROUP BY — the Ω cracker's
// fast path — and the store's GroupBy give the model's group counts
// through inserts and deletes.
func TestSQLAggregationOverCrackedStore(t *testing.T) {
	oracle.Run(t, oracle.New(oracle.Config{Seed: 17, Ops: 40, Load: 3000, Domain: 3000, MaxBatch: 100,
		Mix: oracle.Mix{oracle.Group: 3, oracle.Insert: 1, oracle.Delete: 1}}),
		nil, oracle.Single(crackdb.New()), oracle.Engine("sql over a one-shard router", shard.New(shard.Options{})))
}

// TestConcurrentStoreUsage hammers one store from several goroutines
// mixing queries, inserts and group-bys (run with -race).
func TestConcurrentStoreUsage(t *testing.T) {
	store := crackdb.New()
	if err := store.LoadTapestry("tap", 20000, 2, 5); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				switch rng.Intn(4) {
				case 0:
					if err := store.InsertRows("tap", [][]int64{{rng.Int63n(20000), rng.Int63n(20000)}}); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := store.SelectWhere("tap",
						crackdb.Cond{Col: "c0", Op: ">=", Val: rng.Int63n(10000)},
						crackdb.Cond{Col: "c1", Op: "<", Val: rng.Int63n(20000)},
					); err != nil {
						errs <- err
						return
					}
				default:
					lo := rng.Int63n(19000)
					if _, err := store.Count("tap", "c0", lo, lo+rng.Int63n(1000)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Post-storm sanity: full-range count equals the table cardinality...
	n, err := store.NumRows("tap")
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.SelectWhere("tap")
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != n {
		t.Fatalf("full count %d != cardinality %d after concurrent storm", got.Count(), n)
	}
	// ...and the cracked column invariants still hold (cheap smoke: a
	// few point queries agree with a fetch-and-filter).
	for probe := int64(1); probe <= 3; probe++ {
		res, err := store.Select("tap", "c0", probe*1000, probe*1000)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Rows("c0")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r[0] != probe*1000 {
				t.Fatalf("point query returned %d", r[0])
			}
		}
	}
}

// TestSaveOpenWithSQL takes cracksql's -data path: SQL over a durable
// one-shard router, a checkpoint, a clean close, a reopen from the
// chain, and SQL again over the crack state the checkpoint kept.
func TestSaveOpenWithSQL(t *testing.T) {
	dir := t.TempDir()
	store, _, err := shard.OpenDurable(dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sql.NewEngineOn(store)
	for _, stmt := range splitScript(t, `
		CREATE TABLE m (x, y);
		INSERT INTO m VALUES (1, 10), (2, 20), (3, 30), (4, 40);
	`) {
		if _, err := eng.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Exec("SELECT COUNT(*) FROM m WHERE x >= 2"); err != nil {
		t.Fatal(err)
	}
	if kind, err := store.Checkpoint(false); err != nil || kind != "full" {
		t.Fatalf("checkpoint = %q, %v; want full", kind, err)
	}
	if err := store.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	re, info, err := shard.OpenDurable(dir, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseWAL()
	if !info.Recovered || info.Replayed != 0 {
		t.Fatalf("reopen %+v, want the checkpoint and no replay", info)
	}
	if st, err := re.Shard(0).Stats("m", "x"); err != nil || st.Pieces < 2 {
		t.Fatalf("crack state after reopen: %+v, %v; want the x >= 2 cut", st, err)
	}
	rs, err := sql.NewEngineOn(re).Exec("SELECT SUM(y) FROM m WHERE x BETWEEN 2 AND 3")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != 50 {
		t.Fatalf("sum after reopen = %d, want 50", rs.Rows[0][0])
	}
}

// TestManyTablesIndependentCracking checks cracked state isolation
// between tables.
func TestManyTablesIndependentCracking(t *testing.T) {
	store := crackdb.New()
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := store.LoadTapestry(name, 1000, 1, int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Count(name, "c0", int64(i*50), int64(i*50+100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		st, err := store.Stats(fmt.Sprintf("t%d", i), "c0")
		if err != nil {
			t.Fatal(err)
		}
		if st.Queries != 1 {
			t.Fatalf("t%d saw %d queries, want exactly its own 1", i, st.Queries)
		}
	}
}
