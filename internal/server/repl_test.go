package server

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crackdb/internal/oracle"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
	"crackdb/internal/strategy"
)

// startFollowerServer boots a follower of primary in dir and serves it
// on loopback. The returned stop tears down cleanly; for crash
// simulations call the pieces directly instead. strat is the follower's
// own crack strategy, set before it applies the primary's log, as
// cracksrv -strategy is.
func startFollowerServer(t *testing.T, primary, dir, strat string) (string, *Follower, func()) {
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
	if err := f.Store().SetCrackStrategy(strat, 7); err != nil {
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

// replica is a primary and its follower as one posture: writes go to
// the primary, and a read is answered by the primary on a synchronous
// client and by the follower — after Topology.Fence — on a pipelined one
// (so the engine folds runs of counts into CountBatch), which must agree.
// A reboot stops the follower. The next read checkpoints the primary,
// which rotates the writes the follower missed into the archive, then
// restarts the follower from its data dir to catch up from there.
type replica struct {
	t                  *testing.T
	strategy           string // both servers' crack strategy
	pAddr, fAddr, fDir string
	pc, fc             *Client
	follower           *Follower
	stop               func() // nil while the follower is down
	dirty              bool   // writes since the last fence
	rebooted           bool   // the follower is down for a reboot
	missed             int    // writes made while it was
}

func (r *replica) start() {
	if r.rebooted {
		if resp, err := r.pc.Do("/save"); err != nil {
			r.t.Fatal(err)
		} else if resp.Err != "" {
			r.t.Fatalf("/save: %s", resp.Err)
		}
		r.rebooted = false
	}
	r.fAddr, r.follower, r.stop = startFollowerServer(r.t, r.pAddr, r.fDir, r.strategy)
	var err error
	if r.fc, err = Dial(r.fAddr); err != nil {
		r.t.Fatal(err)
	}
	r.dirty = true
}

func (r *replica) down() {
	if r.stop != nil {
		r.fc.Close()
		r.stop()
		r.stop = nil
	}
}

func (r *replica) exec(stmts ...string) []oracle.Reply {
	// A statement that does not parse is refused alike by both servers.
	if st, err := sql.Parse(stmts[0]); err == nil && !readOnlyStmt(st) {
		out := wireReplies(r.t, r.pc, false, stmts)
		if r.rebooted && out[0].Err == "" {
			r.missed++
		}
		r.dirty = true
		return out
	}
	if r.stop == nil {
		r.start()
	}
	if r.dirty {
		if err := (Topology{Primary: r.pAddr, Followers: []string{r.fAddr}}).Fence(10 * time.Second); err != nil {
			r.t.Fatal(err)
		}
		r.dirty = false
	}
	p, f := wireReplies(r.t, r.pc, false, stmts), wireReplies(r.t, r.fc, true, stmts)
	if !reflect.DeepEqual(p, f) {
		return []oracle.Reply{{Err: fmt.Sprintf("the primary answers %v, the follower %v", p, f)}}
	}
	return p
}

func (r *replica) reboot() error {
	r.down()
	r.rebooted = true
	return nil
}

// wireReplies sends stmts on c, one by one or pipelined in one flush.
func wireReplies(t *testing.T, c *Client, pipelined bool, stmts []string) []oracle.Reply {
	t.Helper()
	resps := make([]*Response, len(stmts))
	var err error
	if pipelined {
		resps, err = c.DoBatch(stmts)
	}
	for i := 0; !pipelined && err == nil && i < len(stmts); i++ {
		resps[i], err = c.Do(stmts[i])
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make([]oracle.Reply, len(resps))
	for i, resp := range resps {
		out[i] = oracle.Reply{Msg: resp.Message, Err: resp.Err, Rows: make([][]int64, len(resp.Rows))}
		for j, row := range resp.Rows {
			out[i].Rows[j] = make([]int64, len(row))
			for k := range row {
				if out[i].Rows[j][k], err = resp.Int64(j, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestReplicationOracle: under every crack strategy, a primary and its
// follower — each cracking under its own reads, with the strategy each
// server is given — answer the model alike, the follower read after a
// fence, through inserts, deletes, a follower outage across a checkpoint
// and a restart. Then a trickle of small inserts into the converged key
// column must fold by ripple on both, and a fresh column must crack
// under the restarted follower's strategy.
func TestReplicationOracle(t *testing.T) {
	for _, strat := range strategy.Names() {
		t.Run(strat, func(t *testing.T) {
			pAddr, pStore, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
			defer pStop()
			if err := pStore.SetCrackStrategy(strat, 7); err != nil {
				t.Fatal(err)
			}
			r := &replica{t: t, strategy: strat, pAddr: pAddr, fDir: t.TempDir()}
			var err error
			if r.pc, err = Dial(pAddr); err != nil {
				t.Fatal(err)
			}
			defer r.pc.Close()
			defer r.down()
			p := &oracle.SQL{Label: "replicas", Exec: r.exec, Reboot: r.reboot}
			m := oracle.Run(t, oracle.New(oracle.Config{Seed: 2, Ops: 50, Load: 2000, Domain: 100_000, MaxBatch: 400, Bad: 10,
				Mix: oracle.Mix{oracle.Insert: 2, oracle.Delete: 1, oracle.Count: 4, oracle.CountBatch: 1, oracle.Select: 1, oracle.Reboot: 1}}),
				nil, p)
			if r.missed == 0 {
				t.Fatal("no write landed while the follower was down: it never caught up across a checkpoint")
			}
			if r.stop == nil {
				r.start()
			}
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
			pRipple, pRebuild := folds(pStore)
			fRipple, fRebuild := folds(r.follower.Store())
			oracle.Run(t, oracle.New(oracle.Config{Seed: 12, Ops: 24, Domain: 100_000, MaxBatch: 16,
				Mix: oracle.Mix{oracle.Insert: 1, oracle.Count: 1}}), m, p)
			if rp, bp := folds(pStore); rp == pRipple || bp != pRebuild {
				t.Fatalf("primary folded the trickle with %d ripples, %d rebuilds", rp-pRipple, bp-pRebuild)
			}
			if rf, bf := folds(r.follower.Store()); rf == fRipple || bf != fRebuild {
				t.Fatalf("follower folded the trickle with %d ripples, %d rebuilds", rf-fRipple, bf-fRebuild)
			}
			// The restarted follower cracks a fresh column under its own
			// strategy: nothing in the log carries one.
			for _, stmt := range []string{"CREATE TABLE fresh (a)", "INSERT INTO fresh VALUES (1), (2), (3)"} {
				if resp, _ := r.pc.Do(stmt); resp.Err != "" {
					t.Fatalf("%s: %s", stmt, resp.Err)
				}
			}
			fence(t, r.fAddr, primaryNext(t, pStore))
			if _, err := r.fc.Count("SELECT COUNT(*) FROM fresh WHERE a >= 2"); err != nil {
				t.Fatal(err)
			}
			per, err := r.follower.Store().ShardStats("fresh", "a")
			if err != nil {
				t.Fatal(err)
			}
			for i, cs := range per {
				if cs.Strategy != strat {
					t.Fatalf("the follower's shard %d cracks fresh.a under %q, want %s", i, cs.Strategy, strat)
				}
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

	fAddr, _, fStop := startFollowerServer(t, pAddr, t.TempDir(), "standard")
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
	fAddr, _, fStop := startFollowerServer(t, pAddr, t.TempDir(), "standard")
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
// whole topology, a fence
// after writes on a raw client makes both followers count exactly, and
// a follower that died but is still listed by the primary is dropped at
// once: its refused port is dialed once, not retried for 2 s.
func TestDiscoverAndFence(t *testing.T) {
	pAddr, _, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 2})
	defer pStop()
	f1Addr, _, f1Stop := startFollowerServer(t, pAddr, t.TempDir(), "standard")
	defer f1Stop()
	f2Addr, _, f2Stop := startFollowerServer(t, pAddr, t.TempDir(), "standard")
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
	began := time.Now()
	topo, err = Discover([]string{pAddr})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > 500*time.Millisecond {
		t.Errorf("discovery past a dead follower took %v, want under 500ms", took)
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
	fAddr, _, fStop := startFollowerServer(t, pAddr, dir, "standard")
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
	_, f, fStop := startFollowerServer(t, pAddr, t.TempDir(), "standard")
	defer fStop()
	// The first heartbeat rides the first pull, which then parks.
	waitFollowers(t, pAddr, 1)
	start := time.Now()
	f.Stop()
	if e := time.Since(start); e > 300*time.Millisecond {
		t.Fatalf("Follower.Stop took %v against an idle primary", e)
	}
}

// TestFollowerEndsWhenLogIsGone: a follower whose position the primary no
// longer archives cannot catch up by reconnecting, so Run returns the
// refusal instead of retrying it forever behind reads that never advance.
// The follower advertises no address, so no heartbeat pins the primary's
// prune floor and no follower-seen window has to pass.
func TestFollowerEndsWhenLogIsGone(t *testing.T) {
	pAddr, _, pStop := startDurableServer(t, t.TempDir(), shard.Options{Shards: 1})
	defer pStop()
	pc, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Exec("CREATE TABLE t (k)"); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFollower(FollowerOptions{Primary: pAddr, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Store().CloseWAL()
	// Every /save after a write rotates the primary's log; past the
	// retained archives the follower's position is gone.
	for i := 0; i < 6; i++ {
		if _, err := pc.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
		save(t, pc, "")
	}
	ended := make(chan error, 1)
	go func() { ended <- f.Run() }()
	select {
	case err := <-ended:
		if err == nil || !strings.Contains(err.Error(), "snapshot required") {
			t.Fatalf("Run ended with %v, want the primary's snapshot-required refusal", err)
		}
	case <-time.After(5 * time.Second):
		f.Stop()
		t.Fatal("Run kept retrying a position the primary no longer holds")
	}
}
