package server

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

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

// TestDiscoverAndFence: discovery from a single follower names the
// whole topology, each read preference selects its members, a fence
// after writes on a raw client makes both followers count exactly, and
// a follower that died but is still listed by the primary is dropped.
func TestDiscoverAndFence(t *testing.T) {
	pAddr, _, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
	defer pStop()
	f1Addr, _, f1Stop := startFollowerServer(t, pAddr, t.TempDir())
	defer f1Stop()
	f2Addr, _, f2Stop := startFollowerServer(t, pAddr, t.TempDir())
	waitFollowers(t, pAddr, 2)

	topo, err := Discover([]string{f1Addr})
	if err != nil {
		t.Fatal(err)
	}
	followers := []string{f1Addr, f2Addr}
	sort.Strings(followers)
	if topo.Primary != pAddr || !equalLines(topo.Followers, followers) {
		t.Fatalf("discovered %+v, want primary %s and followers %v", topo, pAddr, followers)
	}
	for pref, want := range map[string][]string{
		"follower": followers,
		"any":      append(append([]string(nil), followers...), pAddr),
		"primary":  {pAddr},
	} {
		got, err := topo.Readers(pref)
		if err != nil || !equalLines(got, want) {
			t.Fatalf("Readers(%q) = (%v, %v), want %v", pref, got, err, want)
		}
	}
	if got, err := topo.Readers("nearest"); err == nil {
		t.Fatalf("Readers(\"nearest\") = %v, want an error", got)
	}

	pc, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var b strings.Builder
	b.WriteString("INSERT INTO s VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d)", i, i%10)
	}
	for _, stmt := range []string{"CREATE TABLE s (a, b)", b.String(), "DELETE FROM s WHERE a >= 150"} {
		if _, err := pc.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	countAt := func(addr string, want int64) {
		t.Helper()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if n, err := c.Count("SELECT COUNT(*) FROM s WHERE a >= 0 AND a <= 1000000"); err != nil || n != want {
			t.Fatalf("%s counts (%d, %v), want %d", addr, n, err, want)
		}
	}
	if err := topo.Fence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	countAt(f1Addr, 150)
	countAt(f2Addr, 150)

	// Kill f2. The primary still lists it by its last heartbeat, and a
	// fresh discovery must drop it rather than name a dead fence target.
	f2Stop()
	if _, listed, err := replKV(pc); err != nil || len(listed) != 2 {
		t.Fatalf("primary lists %v (%v), want the dead follower still among 2", listed, err)
	}
	topo, err = Discover([]string{pAddr})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Primary != pAddr || !equalLines(topo.Followers, []string{f1Addr}) {
		t.Fatalf("after a follower died, discovered %+v, want followers [%s]", topo, f1Addr)
	}
	if _, err := pc.Exec("INSERT INTO s VALUES (1000, 0)"); err != nil {
		t.Fatal(err)
	}
	if err := topo.Fence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	countAt(f1Addr, 151)
}

// TestFollowerRestartCaughtUpIsPrompt: a follower restarted against an
// idle primary whose log it has fully applied opens at once — its
// position is the primary's live frontier, so there is nothing to probe
// and no long poll to wait out.
func TestFollowerRestartCaughtUpIsPrompt(t *testing.T) {
	pAddr, pStore, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
	defer pStop()
	pc, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for _, stmt := range []string{"CREATE TABLE t (k)", "INSERT INTO t VALUES (1), (2), (3)"} {
		if _, err := pc.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	fAddr, _, fStop := startFollowerServer(t, pAddr, dir)
	fence(t, fAddr, primaryNext(t, pStore))
	fStop()

	start := time.Now()
	f, err := OpenFollower(FollowerOptions{Primary: pAddr, DataDir: dir})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Store().CloseWAL()
	if elapsed > 300*time.Millisecond {
		t.Fatalf("OpenFollower of a caught-up follower took %v", elapsed)
	}
	if n, err := f.Store().CountWhere("t"); err != nil || n != 3 {
		t.Fatalf("restarted follower counts (%d, %v), want 3", n, err)
	}
}

// TestFollowerStopIsPrompt: Stop does not wait out the long poll the
// pull loop has parked on an idle primary.
func TestFollowerStopIsPrompt(t *testing.T) {
	pAddr, _, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 1})
	defer pStop()
	_, f, fStop := startFollowerServer(t, pAddr, t.TempDir())
	defer fStop()
	// The first heartbeat rides the first pull, which then parks.
	waitFollowers(t, pAddr, 1)
	start := time.Now()
	f.Stop()
	if e := time.Since(start); e > 300*time.Millisecond {
		t.Fatalf("Follower.Stop took %v against an idle primary", e)
	}
}
