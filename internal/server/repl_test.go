package server

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"crackdb"
	"crackdb/internal/shard"
)

// startFollowerServer boots a follower of primary in dir and serves it
// on loopback. The returned stop tears down cleanly; for crash
// simulations call the pieces directly instead.
func startFollowerServer(t *testing.T, primary, dir string) (string, *Follower, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenFollower(FollowerOptions{Primary: primary, DataDir: dir, Advertise: ln.Addr().String()})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	srv := New(f.Store(), nil)
	srv.SetPrimary(primary)
	srv.SetAdvertise(ln.Addr().String())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	go f.Run()
	return ln.Addr().String(), f, func() {
		f.Stop()
		srv.Shutdown(2 * time.Second)
		if err := <-served; err != nil {
			t.Errorf("follower Serve returned %v after shutdown, want nil", err)
		}
		if err := f.Store().CloseWAL(); err != nil {
			t.Errorf("follower CloseWAL: %v", err)
		}
	}
}

// fence blocks until the server at addr has applied the primary's log
// through seq.
func fence(t *testing.T, addr string, seq uint64) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(fmt.Sprintf("/replwait %d 10000", seq))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("fence at seq %d: %s", seq, resp.Err)
	}
}

// dumpSorted returns the table's full contents as canonical sorted
// lines — the byte-identical comparison between replicas.
func dumpSorted(t *testing.T, addr, table string) []string {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(resp.Rows))
	for i, row := range resp.Rows {
		lines[i] = strings.Join(row, "\t")
	}
	sort.Strings(lines)
	return lines
}

func primaryNext(t *testing.T, st *shard.Store) uint64 {
	t.Helper()
	w := st.WAL()
	if w == nil {
		t.Fatal("primary is not durable")
	}
	return w.Seq()
}

// TestReplicationOracle drives interleaved inserts, deletes and selects
// at a primary while a follower replicates, under every crack strategy.
// After each fence the follower must hold the byte-identical live row
// set — crack order and physical organization may differ, the logical
// contents may not. Mid-stream the follower is killed (no clean
// shutdown of the pull loop's store) and restarted from its data dir,
// and must catch up from its own fsynced log frontier.
func TestReplicationOracle(t *testing.T) {
	for _, strat := range []string{"standard", "ddc", "ddr", "mdd1r"} {
		t.Run(strat, func(t *testing.T) {
			pAddr, pStore, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
			defer pStop()
			pc, err := Dial(pAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer pc.Close()

			if strat != "standard" {
				if resp, _ := pc.Do(fmt.Sprintf("/strategy %s 7", strat)); resp.Err != "" {
					t.Fatalf("/strategy: %s", resp.Err)
				}
			}
			if resp, _ := pc.Do("CREATE TABLE t (k, v)"); resp.Err != "" {
				t.Fatalf("create: %s", resp.Err)
			}

			fDir := t.TempDir()
			fAddr, follower, fStop := startFollowerServer(t, pAddr, fDir)
			// The follower selects below need the replicated table first.
			fence(t, fAddr, primaryNext(t, pStore))

			rng := rand.New(rand.NewSource(11))
			insertBatch := func(n int) {
				var b strings.Builder
				b.WriteString("INSERT INTO t VALUES ")
				for i := 0; i < n; i++ {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "(%d, %d)", rng.Int63n(100000), rng.Int63n(1000))
				}
				if resp, err := pc.Exec(b.String()); err != nil {
					t.Fatal(err)
				} else if resp.Err != "" {
					t.Fatalf("insert: %s", resp.Err)
				}
			}

			fc, err := Dial(fAddr)
			if err != nil {
				t.Fatal(err)
			}
			// Phase 1: inserts + selects on both sides (each replica cracks
			// under its own load), deletes interleaved.
			for round := 0; round < 5; round++ {
				insertBatch(400)
				lo := rng.Int63n(90000)
				if resp, _ := pc.Do(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k >= %d AND k <= %d", lo, lo+5000)); resp.Err != "" {
					t.Fatalf("primary select: %s", resp.Err)
				}
				if resp, _ := fc.Do(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE v >= %d AND v <= %d", lo%1000, lo%1000+50)); resp.Err != "" {
					t.Fatalf("follower select: %s", resp.Err)
				}
				if round%2 == 1 {
					dlo := rng.Int63n(900)
					if resp, _ := pc.Do(fmt.Sprintf("DELETE FROM t WHERE v >= %d AND v <= %d", dlo, dlo+20)); resp.Err != "" {
						t.Fatalf("delete: %s", resp.Err)
					}
				}
			}
			fence(t, fAddr, primaryNext(t, pStore))
			if p, f := dumpSorted(t, pAddr, "t"), dumpSorted(t, fAddr, "t"); !equalLines(p, f) {
				t.Fatalf("replica diverged after phase 1: primary %d rows, follower %d rows", len(p), len(f))
			}

			// Phase 2: an insert-heavy trickle on a converged key column —
			// small batches between counts, so every statement that follows
			// a batch folds it into a cracked column on whichever replica
			// answers. Both sides must take the fold that keeps the index,
			// and stay identical at the result level (their physical orders
			// are their own).
			folds := func(st *shard.Store) (ripple, rebuild int) {
				per, err := st.ShardStats("t", "k")
				if err != nil {
					t.Fatal(err)
				}
				for _, cs := range per {
					ripple, rebuild = ripple+cs.RippleFolds, rebuild+cs.RebuildFolds
				}
				return ripple, rebuild
			}
			kCount := func(c *Client, lo int64) string {
				resp, _ := c.Do(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k >= %d AND k <= %d", lo, lo+4000))
				if resp.Err != "" || len(resp.Rows) != 1 {
					t.Fatalf("count: %+v", resp)
				}
				return resp.Rows[0][0]
			}
			for q := 0; q < 30; q++ { // converge both replicas on k
				lo := rng.Int63n(95000)
				kCount(pc, lo)
				kCount(fc, lo)
			}
			pRipple, pRebuild := folds(pStore)
			fRipple, fRebuild := folds(follower.Store())
			for round := 0; round < 12; round++ {
				insertBatch(16)
				fence(t, fAddr, primaryNext(t, pStore))
				lo := rng.Int63n(95000)
				if p, f := kCount(pc, lo), kCount(fc, lo); p != f {
					t.Fatalf("round %d: primary counts %s, follower %s", round, p, f)
				}
			}
			if r, b := folds(pStore); r == pRipple || b != pRebuild {
				t.Fatalf("primary folded the trickle with %d ripples, %d rebuilds", r-pRipple, b-pRebuild)
			}
			if r, b := folds(follower.Store()); r == fRipple || b != fRebuild {
				t.Fatalf("follower folded the trickle with %d ripples, %d rebuilds", r-fRipple, b-fRebuild)
			}
			if p, f := dumpSorted(t, pAddr, "t"), dumpSorted(t, fAddr, "t"); !equalLines(p, f) {
				t.Fatalf("replica diverged after the trickle: primary %d rows, follower %d rows", len(p), len(f))
			}
			fc.Close()

			// Kill the follower mid-stream: stop pulling without closing its
			// WAL cleanly (the log is fsync-durable; this is the SIGKILL
			// shape), keep writing at the primary, then restart it from the
			// same directory.
			follower.Stop()
			fStop()

			insertBatch(300)
			if resp, _ := pc.Do("DELETE FROM t WHERE v >= 0 AND v <= 5"); resp.Err != "" {
				t.Fatalf("delete while follower down: %s", resp.Err)
			}
			// A checkpoint mid-outage rotates the primary's log; the archive
			// keeps the suffix servable so the restarted follower does not
			// need a new snapshot.
			if resp, _ := pc.Do("/save"); resp.Err != "" {
				t.Fatalf("/save: %s", resp.Err)
			}
			insertBatch(200)

			fAddr2, _, fStop3 := startFollowerServer(t, pAddr, fDir)
			defer fStop3()
			fence(t, fAddr2, primaryNext(t, pStore))
			if p, f := dumpSorted(t, pAddr, "t"), dumpSorted(t, fAddr2, "t"); !equalLines(p, f) {
				t.Fatalf("replica diverged after restart: primary %d rows, follower %d rows", len(p), len(f))
			}
		})
	}
}

// waitFollowers polls the primary's /repl until n followers have
// heartbeated — their first pull registers them for discovery.
func waitFollowers(t *testing.T, primary string, n int) {
	t.Helper()
	c, err := Dial(primary)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, followers, err := replKV(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(followers) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary lists %d followers, want %d", len(followers), n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitFollowerAddr blocks until the primary's /repl lists the follower
// at addr (by heartbeat, so the follower's pull loop is running).
func waitFollowerAddr(t *testing.T, primary, addr string) {
	t.Helper()
	c, err := Dial(primary)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, followers, err := replKV(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range followers {
			if fields := strings.Fields(f); len(fields) > 0 && fields[0] == addr {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never listed follower %s (have %v)", addr, followers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func equalLines(a, b []string) bool {
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

// TestFollowerSnapshotBootstrap forces the snapshot path: the primary
// checkpoints more times than it retains archived WAL segments, so a
// fresh follower cannot replay from seq 0 and must download the
// checkpoint image.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	pAddr, pStore, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
	defer pStop()
	pc, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if resp, _ := pc.Do("CREATE TABLE t (k, v)"); resp.Err != "" {
		t.Fatalf("create: %s", resp.Err)
	}
	total := 0
	for round := 0; round < 6; round++ { // > archive retention
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < 50; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d, %d)", total+i, round)
		}
		total += 50
		if resp, _ := pc.Do(b.String()); resp.Err != "" {
			t.Fatalf("insert: %s", resp.Err)
		}
		if resp, _ := pc.Do("/save"); resp.Err != "" {
			t.Fatalf("/save: %s", resp.Err)
		}
	}
	// Writes after the last checkpoint ride the live log on top of the
	// downloaded image.
	if resp, _ := pc.Do("INSERT INTO t VALUES (100000, 9)"); resp.Err != "" {
		t.Fatalf("tail insert: %s", resp.Err)
	}
	total++

	fAddr, _, fStop := startFollowerServer(t, pAddr, t.TempDir())
	defer fStop()
	fence(t, fAddr, primaryNext(t, pStore))
	if p, f := dumpSorted(t, pAddr, "t"), dumpSorted(t, fAddr, "t"); !equalLines(p, f) {
		t.Fatalf("bootstrap diverged: primary %d rows, follower %d rows", len(p), len(f))
	}
	fc, err := Dial(fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	n, err := fc.Count("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(total) {
		t.Fatalf("follower counts %d rows, want %d", n, total)
	}
}

// TestFollowerReadOnly verifies the write fence: SQL mutations and
// logged metas are refused with the primary's address, reads work.
func TestFollowerReadOnly(t *testing.T) {
	pAddr, pStore, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 1})
	defer pStop()
	pc, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for _, stmt := range []string{"CREATE TABLE t (k, v)", "INSERT INTO t VALUES (1, 2), (3, 4)"} {
		if resp, _ := pc.Do(stmt); resp.Err != "" {
			t.Fatalf("%s: %s", stmt, resp.Err)
		}
	}
	fAddr, _, fStop := startFollowerServer(t, pAddr, t.TempDir())
	defer fStop()
	fence(t, fAddr, primaryNext(t, pStore))

	fc, err := Dial(fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	for _, stmt := range []string{
		"INSERT INTO t VALUES (5, 6)",
		"DELETE FROM t WHERE k >= 0",
		"CREATE TABLE u (a)",
		"DROP TABLE t",
		"SELECT k INTO frag1 FROM t WHERE k >= 0",
		"/strategy mdd1r 7",
		"/tapestry x 100 2",
	} {
		resp, err := fc.Do(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err == "" || !strings.Contains(resp.Err, "read-only follower") || !strings.Contains(resp.Err, pAddr) {
			t.Fatalf("%s: err %q, want read-only refusal naming %s", stmt, resp.Err, pAddr)
		}
	}
	n, err := fc.Count("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("follower read counts %d, want 2", n)
	}
}

// TestSessionRouting exercises the topology-aware client: discovery
// from a single member, read-preference fan-out and write routing.
func TestSessionRouting(t *testing.T) {
	pAddr, pStore, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
	defer pStop()

	// The primary must advertise itself for discovery via followers.
	// startDurableServer does not set it, so dial and check /repl still
	// names role primary; Session keys on the dialed address.
	f1Addr, _, f1Stop := startFollowerServer(t, pAddr, t.TempDir())
	defer f1Stop()
	f2Addr, _, f2Stop := startFollowerServer(t, pAddr, t.TempDir())
	defer f2Stop()
	waitFollowers(t, pAddr, 2)

	sess, err := NewSession([]string{f1Addr}, ReadFollower)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.PrimaryAddr() != pAddr {
		t.Fatalf("discovered primary %q, want %q", sess.PrimaryAddr(), pAddr)
	}

	if err := sess.CreateTable("s", "a", "b"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 200)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 10)}
	}
	if err := sess.InsertRows("s", rows); err != nil {
		t.Fatal(err)
	}
	if n, err := sess.Delete("s", crackdb.Cond{Col: "a", Op: ">=", Val: 150}); err != nil || n != 50 {
		t.Fatalf("session delete = (%d, %v), want (50, nil)", n, err)
	}
	if err := sess.Fence(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Reads round-robin across both followers and agree with the oracle.
	for i := 0; i < 4; i++ {
		n, err := sess.Count("s", "a", 0, 1000000)
		if err != nil {
			t.Fatal(err)
		}
		if n != 150 {
			t.Fatalf("read %d: count %d, want 150", i, n)
		}
	}
	res, err := sess.SelectWhere("s",
		crackdb.Cond{Col: "b", Op: ">=", Val: 3},
		crackdb.Cond{Col: "b", Op: "<=", Val: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Rows("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 {
		t.Fatalf("projection returned %d rows, want 15", len(got))
	}
	for _, row := range got {
		if row[1] != 3 {
			t.Fatalf("projected row %v has b != 3", row)
		}
	}
	counts, err := sess.CountBatch("s", "a", []crackdb.Range{{Low: 0, High: 49}, {Low: 50, High: 99}, {Low: 100, High: 149}})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range counts {
		if n != 50 {
			t.Fatalf("batch range %d counts %d, want 50", i, n)
		}
	}

	// Session over a Session-discovered topology: both followers serve.
	if sess.Readers() != 2 {
		t.Fatalf("follower preference has %d readers, want 2", sess.Readers())
	}
	any, err := NewSession([]string{pAddr, f1Addr, f2Addr}, ReadAny)
	if err != nil {
		t.Fatal(err)
	}
	defer any.Close()
	if any.Readers() != 3 {
		t.Fatalf("any preference has %d readers, want 3", any.Readers())
	}
	prim, err := NewSession([]string{f2Addr}, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	if prim.Readers() != 1 || prim.PrimaryAddr() != pAddr {
		t.Fatalf("primary preference: %d readers, primary %q", prim.Readers(), prim.PrimaryAddr())
	}
	_ = pStore
}

// TestSessionReprobe kills a session's only follower mid-stream: the
// read rotation fails at the transport layer, the session re-probes
// /repl, and reads continue on the primary without rebuilding the
// session. A replacement follower then joins and a refresh folds it
// back into the rotation.
func TestSessionReprobe(t *testing.T) {
	pAddr, _, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
	defer pStop()
	f1Addr, _, f1Stop := startFollowerServer(t, pAddr, t.TempDir())
	waitFollowers(t, pAddr, 1)

	sess, err := NewSession([]string{pAddr}, ReadFollower)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if got := sess.ReaderAddrs(); len(got) != 1 || got[0] != f1Addr {
		t.Fatalf("readers %v, want [%s]", got, f1Addr)
	}

	if err := sess.CreateTable("r", "a"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, 100)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	if err := sess.InsertRows("r", rows); err != nil {
		t.Fatal(err)
	}
	if err := sess.Fence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, err := sess.Count("r", "a", 0, 1000); err != nil || n != 100 {
		t.Fatalf("count via follower = (%d, %v), want (100, nil)", n, err)
	}

	// Kill the only follower: the next read must survive by re-probing
	// and falling back to the primary.
	f1Stop()
	if n, err := sess.Count("r", "a", 0, 1000); err != nil || n != 100 {
		t.Fatalf("count after follower death = (%d, %v), want (100, nil)", n, err)
	}
	if got := sess.ReaderAddrs(); len(got) != 1 || got[0] != pAddr {
		t.Fatalf("readers after reprobe %v, want fallback to primary [%s]", got, pAddr)
	}
	// Writes keep flowing through the same session.
	if err := sess.InsertRows("r", [][]int64{{1000}}); err != nil {
		t.Fatal(err)
	}

	// A replacement follower joins; the next refresh folds it back in.
	// (Reads only re-probe on failure, so drive the refresh directly —
	// the failure-triggered path is what the fallback above exercised.)
	f2Addr, _, f2Stop := startFollowerServer(t, pAddr, t.TempDir())
	defer f2Stop()
	// The dead follower lingers in the primary's heartbeat list, so wait
	// for the replacement's address specifically, not a follower count.
	waitFollowerAddr(t, pAddr, f2Addr)
	if err := sess.reprobe(sess.gen.Load()); err != nil {
		t.Fatal(err)
	}
	if got := sess.ReaderAddrs(); len(got) != 1 || got[0] != f2Addr {
		t.Fatalf("readers after rejoin %v, want [%s]", got, f2Addr)
	}
	if err := sess.Fence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, err := sess.Count("r", "a", 0, 2000); err != nil || n != 101 {
		t.Fatalf("count via new follower = (%d, %v), want (101, nil)", n, err)
	}
}
