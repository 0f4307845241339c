//go:build e2e

// The end-to-end suite: real cracksrv processes — primaries and
// followers — answer internal/oracle's op streams over server.Client,
// and a SIGKILL plus a restart on the same data dir is the reboot op.
// Run it with
//
//	go test -tags e2e -count=1 -v ./cmd/cracksrv
//	go test -tags e2e -run 'TestE2E/<name>' ./cmd/cracksrv
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"crackdb/internal/oracle"
	"crackdb/internal/server"
	"crackdb/internal/workload"
)

// childEnv, when set, makes the test binary run as cracksrv: TestMain
// hands its flags to main. Every server the suite starts is this binary,
// so no build runs inside a test and -race races the servers too.
const childEnv = "CRACKSRV_E2E_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// proc is one cracksrv process; restart boots it again with the same
// flags on the same address.
type proc struct {
	t      *testing.T
	addr   string
	args   []string
	cmd    *exec.Cmd
	stderr *tail
	exited chan struct{} // closed once Wait returned
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it, so boot retries a failed start.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// boot starts cracksrv with args on a free port and returns once it
// answers /ping. It is killed when the test ends, if still running.
func boot(t *testing.T, args ...string) *proc {
	t.Helper()
	for attempt := 1; ; attempt++ {
		p := &proc{t: t, addr: freeAddr(t), args: args}
		err := p.start()
		if err == nil {
			t.Cleanup(p.kill)
			return p
		}
		if attempt == 3 {
			t.Fatal(err)
		}
	}
}

func (p *proc) start() error {
	p.stderr = &tail{}
	p.cmd = exec.Command(os.Args[0], append([]string{"-addr", p.addr}, p.args...)...)
	p.cmd.Env = append(os.Environ(), childEnv+"=1")
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		return err
	}
	cmd, exited := p.cmd, make(chan struct{})
	p.exited = exited
	go func() {
		cmd.Wait()
		close(exited)
	}()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		select {
		case <-exited:
			return fmt.Errorf("cracksrv %s exited during boot (%v)\n--- stderr ---\n%s", strings.Join(p.args, " "), cmd.ProcessState, p.stderr)
		default:
		}
		if c, err := server.Dial(p.addr); err == nil {
			_, err = c.Exec("/ping")
			c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return fmt.Errorf("cracksrv %s: no /ping answer in 60 s\n--- stderr ---\n%s", strings.Join(p.args, " "), p.stderr)
		}
	}
}

func (p *proc) restart() {
	p.t.Helper()
	if err := p.start(); err != nil {
		p.t.Fatal(err)
	}
}

// kill SIGKILLs the process and reaps it. A no-op once it has exited.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// term sends SIGTERM; exit waits for the process to end and requires a
// clean exit.
func (p *proc) term() { p.cmd.Process.Signal(syscall.SIGTERM) }

func (p *proc) exit() {
	p.t.Helper()
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.t.Fatalf("cracksrv %s still running 10 s after SIGTERM", p.addr)
	}
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		p.t.Fatalf("cracksrv %s exited with status %d\n--- stderr ---\n%s", p.addr, code, p.stderr)
	}
}

// dial opens a client the test closes when it ends.
func (p *proc) dial() *server.Client {
	p.t.Helper()
	c, err := server.DialTimeout(p.addr, 5*time.Second)
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(func() { c.Close() })
	return c
}

// do sends one statement or /meta command on a fresh connection.
func (p *proc) do(cmd string) *server.Response {
	p.t.Helper()
	c, err := server.DialTimeout(p.addr, 5*time.Second)
	if err != nil {
		p.t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(cmd)
	if err != nil {
		p.t.Fatalf("%s: %v", cmd, err)
	}
	return resp
}

// text is the reply to cmd as an operator reads it — the message, then
// one tab-separated line per row — and fails the test on an error reply.
func (p *proc) text(cmd string) string {
	p.t.Helper()
	resp := p.do(cmd)
	if resp.Err != "" {
		p.t.Fatalf("%s: %s", cmd, resp.Err)
	}
	lines := []string{resp.Message}
	for _, row := range resp.Rows {
		lines = append(lines, strings.Join(row, "\t"))
	}
	return strings.Join(lines, "\n")
}

// rows is the reply's table, failing the test on an error reply.
func (p *proc) rows(cmd string) [][]string {
	p.t.Helper()
	resp := p.do(cmd)
	if resp.Err != "" {
		p.t.Fatalf("%s: %s", cmd, resp.Err)
	}
	return resp.Rows
}

// expect fails the test unless the reply to cmd contains want.
func (p *proc) expect(cmd, want string) {
	p.t.Helper()
	if got := p.text(cmd); !strings.Contains(got, want) {
		p.t.Fatalf("%s on %s answered %q, want %q in it", cmd, p.addr, got, want)
	}
}

// tail keeps the last 4 KiB written to it.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.buf = append(t.buf, p...); len(t.buf) > 4096 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-4096:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// replies sends stmts on c, one by one or pipelined in one flush, and
// reads each reply the way oracle.SQL renders it.
func replies(t *testing.T, c *server.Client, pipelined bool, stmts []string) []oracle.Reply {
	t.Helper()
	resps := make([]*server.Response, len(stmts))
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

// wire is the posture of one server: statements go one by one on a
// client, and a reboot SIGKILLs the process between acknowledged ops
// and starts it again on its data dir.
type wire struct {
	p *proc
	c *server.Client
}

func newWire(p *proc) *wire { return &wire{p: p, c: p.dial()} }

func (w *wire) posture() *oracle.SQL {
	return &oracle.SQL{Label: "cracksrv " + strings.Join(w.p.args, " "), Exec: w.exec, Reboot: w.reboot}
}

func (w *wire) exec(stmts ...string) []oracle.Reply { return replies(w.p.t, w.c, false, stmts) }

func (w *wire) reboot() error {
	w.p.kill()
	w.p.restart()
	w.c = w.p.dial()
	return nil
}

// replicated is the posture of a primary and its followers: writes go to
// the primary, and each read goes to the next follower in turn,
// pipelined, after Topology.Fence has brought every follower up to the
// writes before it.
type replicated struct {
	t       *testing.T
	topo    server.Topology
	pc      *server.Client
	readers []*server.Client
	next    int
	dirty   bool
}

func (r *replicated) posture() *oracle.SQL {
	return &oracle.SQL{Label: fmt.Sprintf("followers %v of %s", r.topo.Followers, r.topo.Primary), Exec: r.exec}
}

func (r *replicated) exec(stmts ...string) []oracle.Reply {
	if !strings.HasPrefix(stmts[0], "SELECT ") {
		r.dirty = true
		return replies(r.t, r.pc, false, stmts)
	}
	if r.dirty {
		fence(r.t, r.topo)
		r.dirty = false
	}
	r.next++
	return replies(r.t, r.readers[r.next%len(r.readers)], true, stmts)
}

func fence(t *testing.T, topo server.Topology) {
	t.Helper()
	if err := topo.Fence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// pipelined plays a stream through windows of at least depth statements
// on one connection: it draws ops and the model's answers until the
// window is full, sends the window in one flush, then hands each op its
// own replies and checks its answer.
func pipelined(t *testing.T, g *oracle.Gen, m *oracle.Model, c *server.Client, depth int) {
	t.Helper()
	var sent []string
	var got []oracle.Reply
	replaying := false
	p := &oracle.SQL{Label: fmt.Sprintf("%d-deep pipeline", depth), Exec: func(stmts ...string) []oracle.Reply {
		if replaying {
			out := got[:len(stmts)]
			got = got[len(stmts):]
			return out
		}
		sent = append(sent, stmts...)
		placeholders := make([]oracle.Reply, len(stmts))
		for i := range placeholders {
			placeholders[i].Rows = [][]int64{{0}}
		}
		return placeholders
	}}
	type pending struct {
		op    oracle.Op
		want  string
		check bool
	}
	var window []pending
	flush := func() {
		got, replaying = replies(t, c, true, sent), true
		for _, w := range window {
			if ans, _ := p.Do(w.op); w.check && ans != w.want {
				t.Fatalf("%v\n%s answered:\n%.600s\nthe model answers:\n%.600s", w.op, p.Name(), ans, w.want)
			}
		}
		sent, window, replaying = sent[:0], window[:0], false
	}
	for {
		op, ok := g.Next(m)
		if !ok {
			break
		}
		want, check := m.Do(op)
		if _, ok := p.Do(op); ok {
			window = append(window, pending{op, want, check})
		}
		if len(sent) >= depth {
			flush()
		}
	}
	flush()
}

// manifests lists the data dir's checkpoint manifests in chain order and
// fails the test if the dir holds a subdirectory.
func manifests(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() {
			t.Fatalf("%s holds a subdirectory %s", dir, e.Name())
		}
		if strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// element is a chain element's bytes on disk — its manifest plus one
// image per shard it carries — and that shard count.
func element(t *testing.T, manifest string) (bytes int64, shards int) {
	t.Helper()
	images, err := filepath.Glob(strings.TrimSuffix(manifest, ".json") + "-*.crk")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(images, manifest) {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		bytes += st.Size()
	}
	return bytes, len(images)
}

// gauge reads one unlabelled sample from a server's /metrics.
func gauge(p *proc, name string) float64 {
	p.t.Helper()
	for _, line := range strings.Split(p.text("/metrics"), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				p.t.Fatal(err)
			}
			return v
		}
	}
	p.t.Fatalf("%s: no sample %s on /metrics", p.addr, name)
	return 0
}

// hasSample reports whether an exposition holds a sample line of the
// family, one that also contains label when it is given.
func hasSample(exposition, family string, label ...string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, family) && (len(label) == 0 || strings.Contains(line, label[0])) {
			return true
		}
	}
	return false
}

// insert is one INSERT into the streams' table t: a row per key, with a
// fresh id beside the key and small values after it.
func insert(keys ...int64) *oracle.Gen {
	rows := make([][]int64, len(keys))
	for i, k := range keys {
		rows[i] = []int64{k, 1_000_000 + k, k % 64, k % 500}
	}
	return oracle.Ops(oracle.Op{Kind: oracle.Insert, Table: "t", Rows: rows})
}

// The streams: writes and reads, and reads alone. Each read is a count,
// a batch of counts, a projection or a group; the generator turns a
// tenth of the ops invalid, whose error text must match too.
var (
	mixed = oracle.Mix{oracle.Insert: 2, oracle.Delete: 1, oracle.Count: 4, oracle.CountBatch: 1,
		oracle.Select: 1, oracle.Fetch: 1, oracle.Group: 1}
	reads = oracle.Mix{oracle.Count: 4, oracle.CountBatch: 1, oracle.Select: 1}
)

const domain = 100_000

func stream(seed int64, ops, load int, mix oracle.Mix) *oracle.Gen {
	return oracle.New(oracle.Config{Seed: seed, Ops: ops, Load: load, Domain: domain, MaxBatch: 64, Bad: 10, Mix: mix})
}

func TestE2E(t *testing.T) {
	t.Run("server", testServer)
	t.Run("autotune", testAutotune)
	t.Run("recovery", testRecovery)
	t.Run("delta", func(t *testing.T) {
		t.Parallel()
		t.Run("range", func(t *testing.T) { testDelta(t, "range") })
		t.Run("hash", func(t *testing.T) { testDelta(t, "hash") })
	})
	t.Run("strategy", testStrategy)
	t.Run("replication", testReplication)
	t.Run("rebootstrap", testRebootstrap)
}

// testServer: a volatile server on 4 range shards answers a stream
// synchronously and through 64-deep pipelines, and four connections at
// once exactly; it exposes the workload on both /metrics surfaces, serves
// a CPU profile, and exits 0 on SIGTERM.
func testServer(t *testing.T) {
	t.Parallel()
	httpAddr := freeAddr(t)
	p := boot(t, "-shards", "4", "-partition", "range", "-http", httpAddr)
	w := newWire(p)
	m := oracle.Run(t, stream(1, 300, 5000, mixed), nil, w.posture())
	pipelined(t, stream(2, 600, 0, mixed), m, w.c, 64)

	// Four connections at once, each walking every key pattern over a
	// tapestry table the streams never touch.
	if _, err := w.c.Exec("/tapestry bench 100000 2 42"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := int64(0); i < 4; i++ {
		c := p.dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pat := range workload.Patterns() {
				if err := walkCounts(c, pat, 200, i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if stats := p.rows("/stats bench c0"); stats[len(stats)-1][1] == "0" {
		t.Fatalf("the crackers absorbed no queries: %v", stats)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %v", path, resp.Status, err)
		}
		return body
	}
	overHTTP, overFrame := string(get("/metrics")), p.text("/metrics")
	for _, fam := range []string{"crackdb_query_latency_ns_bucket", "crackdb_shard_routed_queries_total",
		"crackdb_queries_total", "crackdb_server_requests_total", "store_uptime_seconds"} {
		if !hasSample(overHTTP, fam) || !hasSample(overFrame, fam) {
			t.Errorf("metric family %s: over HTTP %v, over the frame protocol %v", fam, hasSample(overHTTP, fam), hasSample(overFrame, fam))
		}
	}
	profile := filepath.Join(t.TempDir(), "cpu.pb")
	if err := os.WriteFile(profile, get("/debug/pprof/profile?seconds=1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount", "3", profile).CombinedOutput(); err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, out)
	}
	p.term()
	p.exit()
}

// testAutotune: one connection walks a key column sequentially on a
// server that starts columns under standard, every count exact through
// the flips; the column then reports ddr on /tune, /stats and /metrics,
// and an operator pin round-trips.
func testAutotune(t *testing.T) {
	t.Parallel()
	p := boot(t, "-shards", "2", "-partition", "range", "-strategy", "standard", "-autotune")
	c := p.dial()
	if _, err := c.Exec("/tapestry bench 100000 2 42"); err != nil {
		t.Fatal(err)
	}
	// 2000 counts give each range shard far more than the 128 (window x
	// confirm) observations a flip needs.
	if err := walkCounts(c, workload.Sequential, 2000, 43); err != nil {
		t.Fatal(err)
	}
	// /tune rows: shard, table, column, strategy, class, flips, queries, forced.
	tune := func(strategy, class, forced string) {
		t.Helper()
		rows := p.rows("/tune")
		for _, r := range rows {
			if r[1] == "bench" && r[2] == "c0" && r[3] == strategy && (class == "" || r[4] == class) && r[7] == forced {
				return
			}
		}
		t.Fatalf("/tune has no bench c0 row with strategy %s, class %q, forced %s: %v", strategy, class, forced, rows)
	}
	tune("ddr", "sequential", "false")
	stats := p.rows("/stats")
	if i := indexRow(stats, "bench.c0"); i < 0 || stats[i][len(stats[i])-1] != "ddr" {
		t.Fatalf("/stats does not report bench.c0 on ddr: %v", stats)
	}
	metrics := p.text("/metrics")
	if !hasSample(metrics, "crackdb_strategy_flips_total") || !hasSample(metrics, "crackdb_tuner_class_info", "sequential") {
		t.Fatal("/metrics lacks the flip counter or a sequential tuner class")
	}
	p.expect("/tune bench c0 standard", "forced to standard")
	tune("standard", "", "true")
	p.expect("/tune bench c0 auto", "released")
	for _, r := range p.rows("/tune") {
		if r[1] == "bench" && r[2] == "c0" && r[7] != "false" {
			t.Fatalf("bench c0 still forced after auto: %v", r)
		}
	}
	p.term()
	p.exit()
}

// walkCounts sends n counts of 1% ranges in the pattern over a
// 100000-row tapestry table bench. Its key c0 is a permutation of
// 1..100000, so each count must be its range's width.
func walkCounts(c *server.Client, pat workload.Pattern, n int, seed int64) error {
	walk, err := workload.New(pat, workload.Config{Domain: 100_000, Count: n, Selectivity: 0.01, Seed: seed})
	if err != nil {
		return err
	}
	for q, ok := walk.Next(); ok; q, ok = walk.Next() {
		stmt := fmt.Sprintf("SELECT COUNT(*) FROM bench WHERE c0 >= %d AND c0 < %d", q.Lo+1, q.Hi+1)
		if got, err := c.Count(stmt); err != nil || got != q.Hi-q.Lo {
			return fmt.Errorf("%s answered (%d, %v), want %d", stmt, got, err, q.Hi-q.Lo)
		}
	}
	return nil
}

// The concurrent writers: four connections insert at once into table
// blocks, writer i into its own block of keys [i*blockSpan,
// (i+1)*blockSpan), so several sessions share one router and, on a -data
// server, its WAL group commit. No oracle stream touches the table.
const (
	writers   = 4
	blockSpan = 1_000_000
	perRound  = 100 // rows each writer appends in one round
)

// writeBlocks runs round r of the writers on p: each appends keys
// [r*perRound, (r+1)*perRound) of its block, five rows to an INSERT, and
// counts its block after every insert, which must see every row that
// writer has sent. Round 0 creates the table.
func writeBlocks(t *testing.T, p *proc, round int) {
	t.Helper()
	if round == 0 {
		p.text("CREATE TABLE blocks (k, v)")
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		c := p.dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := round * perRound; j < (round+1)*perRound; j += 5 {
				tuples := make([]string, 5)
				for k := range tuples {
					tuples[k] = fmt.Sprintf("(%d, %d)", i*blockSpan+j+k, i)
				}
				if _, err := c.Exec("INSERT INTO blocks VALUES " + strings.Join(tuples, ", ")); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				stmt := blockCount(i)
				if got, err := c.Count(stmt); err != nil || got != int64(j+5) {
					t.Errorf("writer %d: %s answered (%d, %v), want %d", i, stmt, got, err, j+5)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

func blockCount(i int) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM blocks WHERE k >= %d AND k < %d", i*blockSpan, (i+1)*blockSpan)
}

// checkBlocks requires of p every block's exact count after rounds
// rounds of the writers, and the table's total.
func checkBlocks(t *testing.T, p *proc, rounds int) {
	t.Helper()
	c := p.dial()
	for i := 0; i < writers; i++ {
		if got, err := c.Count(blockCount(i)); err != nil || got != int64(rounds*perRound) {
			t.Fatalf("%s on %s answered (%d, %v), want %d", blockCount(i), p.addr, got, err, rounds*perRound)
		}
	}
	if got, err := c.Count("SELECT COUNT(*) FROM blocks"); err != nil || got != int64(writers*rounds*perRound) {
		t.Fatalf("SELECT COUNT(*) FROM blocks on %s answered (%d, %v), want %d", p.addr, got, err, writers*rounds*perRound)
	}
}

func indexRow(rows [][]string, label string) int {
	for i, r := range rows {
		if len(r) > 0 && r[0] == label {
			return i
		}
	}
	return -1
}

// testRecovery: a durable server takes inserts, deletes and counts, and
// four concurrent writers, then a checkpoint, and writes — concurrent
// ones too — that live only in its WAL; after a SIGKILL and a restart
// every writer's rows are there, and the stream — SIGKILLs mixed in —
// answers as the model does.
func testRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	p := boot(t, "-shards", "4", "-partition", "range", "-data", dir)
	w := newWire(p)
	post := w.posture()
	writes := oracle.Mix{oracle.Insert: 3, oracle.Delete: 1, oracle.Count: 4, oracle.CountBatch: 1}
	m := oracle.Run(t, stream(3, 200, 5000, writes), nil, post)
	writeBlocks(t, p, 0)
	p.expect("/save", "checkpoint complete")
	m = oracle.Run(t, stream(4, 100, 0, writes), m, post)
	writeBlocks(t, p, 1)
	w.reboot()
	checkBlocks(t, p, 2)
	rebooting := writes
	rebooting[oracle.Reboot] = 1
	oracle.Run(t, stream(5, 200, 0, rebooting), m, post)
	checkBlocks(t, p, 2)
	if rows := p.rows("/wal"); len(rows) != 1 {
		t.Fatalf("/wal answered %v", rows)
	}
	p.term()
	p.exit()
}

// testDelta: on 16 shards, sparse writes checkpoint as delta elements a
// fifth of the full image or less, flat in the data dir; a session that
// only observes checkpoints nothing; and base + chain + WAL boot exact
// after a SIGKILL. Range shards take each round's four rows in one
// shard; hash shards spread 48 rows over nearly all of them.
func testDelta(t *testing.T, partition string) {
	t.Parallel()
	dir := t.TempDir()
	p := boot(t, "-shards", "16", "-partition", partition, "-data", dir)
	w := newWire(p)
	post := w.posture()
	m := oracle.Run(t, stream(6, 300, 50_000, reads), nil, post)
	// A table no query filters, for /stats below.
	untouched := make([][]int64, 100)
	for i := range untouched {
		untouched[i] = []int64{int64(i), int64(i)}
	}
	m = oracle.Run(t, oracle.Ops(oracle.Op{Kind: oracle.Create, Table: "u", Cols: []string{"k", "a"}},
		oracle.Op{Kind: oracle.Insert, Table: "u", Rows: untouched}), m, post)
	p.expect("/save full", "(full)")
	chain := manifests(t, dir)
	base, _ := element(t, chain[len(chain)-1])
	perRound, spacing := 4, int64(10)
	if partition == "hash" {
		perRound, spacing = 48, 100
	}
	for i := int64(1); i <= 3; i++ {
		keys := make([]int64, perRound)
		for j := range keys {
			keys[j] = domain + i*spacing + int64(j) + 1
		}
		m = oracle.Run(t, insert(keys...), m, post)
		p.expect("/save", "(delta)")
	}
	if chain = manifests(t, dir); len(chain) != 4 {
		t.Fatalf("%d chain elements %v, want the base and three deltas", len(chain), chain)
	}
	delta, shards := element(t, chain[3])
	t.Logf("base %d bytes; delta %d bytes over %d shards", base, delta, shards)
	if delta*5 >= base {
		t.Fatalf("a delta element of %d bytes is not a fifth of the %d-byte base", delta, base)
	}
	if partition == "hash" && shards < 12 {
		t.Fatalf("a delta over hash shards carries %d of 16 shards, want >= 12", shards)
	}
	// /stats on a column no query filtered on creates no cracker state.
	p.text("/stats u a")
	p.expect("/save", "checkpoint skipped")
	w.reboot()
	oracle.Run(t, stream(7, 200, 0, reads), m, post)
	p.term()
	p.exit()
}

// testStrategy: -strategy is each server's boot configuration. A
// durable primary restarted under a new one, before and after a
// checkpoint, logs nothing for it and cracks a fresh column under it; a
// follower booted with its own cracks under that and stays at its
// primary's log position. A server booted with no -strategy cracks
// under ddr. A name that is not a strategy stops the boot, naming the
// ones there are.
func testStrategy(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{"ddc", "mdd1r"} {
		cmd := exec.Command(os.Args[0], "-addr", freeAddr(t), "-strategy", bad)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), "want one of standard, ddr") {
			t.Fatalf("cracksrv -strategy %s: %v\n%s", bad, err, out)
		}
	}
	dir := t.TempDir()
	p := boot(t, "-shards", "2", "-data", dir, "-strategy", "ddr")
	fill(p, "t")
	records := p.rows("/wal")[0][2]
	reboot := func(strat string) {
		p.kill()
		p.args = []string{"-shards", "2", "-data", dir, "-strategy", strat}
		p.restart()
	}
	reboot("standard")
	if got := p.rows("/wal")[0][2]; got != records {
		t.Fatalf("the log holds %s records after a restart, %s before it", got, records)
	}
	fill(p, "a")
	crackedUnder(t, p, "a", "standard")
	p.expect("/save", "checkpoint complete")
	reboot("ddr")
	fill(p, "b")
	crackedUnder(t, p, "b", "ddr")

	prim := boot(t, "-shards", "2", "-data", t.TempDir())
	f := boot(t, "-follow", prim.addr, "-data", t.TempDir(), "-strategy", "ddr")
	fill(prim, "u")
	fence(t, server.Topology{Primary: prim.addr, Followers: []string{f.addr}})
	crackedUnder(t, f, "u", "ddr")
	crackedUnder(t, prim, "u", "ddr")
	if pNext, fNext := prim.rows("/wal")[0][1], f.rows("/wal")[0][1]; pNext != fNext {
		t.Fatalf("the follower's log ends at seq %s, the primary's at %s", fNext, pNext)
	}
}

// fill creates table (k) on p and inserts three rows: two log records.
func fill(p *proc, table string) {
	p.text("CREATE TABLE " + table + " (k)")
	p.text("INSERT INTO " + table + " VALUES (1), (2), (3)")
}

// crackedUnder counts on table.k at p, cracking the column, and fails
// unless /stats reports it cracked under strat.
func crackedUnder(t *testing.T, p *proc, table, strat string) {
	t.Helper()
	p.text("SELECT COUNT(*) FROM " + table + " WHERE k >= 2")
	rows := p.rows("/stats " + table + " k")
	if total := rows[len(rows)-1]; total[len(total)-1] != strat {
		t.Fatalf("%s.k on %s cracked under %s, want %s", table, p.addr, total[len(total)-1], strat)
	}
}

// testReplication: two followers found through one of them answer
// reads after fences, the rows of four concurrent writers on the primary
// included; one is SIGKILLed across a primary checkpoint and catches up
// after a restart; followers refuse writes; both lag gauges are exposed;
// and with idle connections held open, all three servers exit cleanly
// within 2 s of SIGTERM.
func testReplication(t *testing.T) {
	t.Parallel()
	prim := boot(t, "-shards", "2", "-partition", "range", "-data", t.TempDir())
	w := newWire(prim)
	m := oracle.Run(t, stream(8, 200, 20_000, mixed), nil, w.posture())
	writeBlocks(t, prim, 0)
	f1 := boot(t, "-follow", prim.addr, "-data", t.TempDir())
	f2 := boot(t, "-follow", prim.addr, "-data", t.TempDir())
	f1.expect("/repl", "role\tfollower")

	var topo server.Topology
	want := server.Topology{Primary: prim.addr, Followers: []string{f1.addr, f2.addr}}
	if f2.addr < f1.addr {
		want.Followers[0], want.Followers[1] = f2.addr, f1.addr
	}
	for deadline := time.Now().Add(10 * time.Second); !reflect.DeepEqual(topo, want); time.Sleep(20 * time.Millisecond) {
		var err error
		topo, err = server.Discover([]string{f1.addr})
		if err != nil || !reflect.DeepEqual(topo, want) && time.Now().After(deadline) {
			t.Fatalf("discovered %+v (%v) from %s, want %+v", topo, err, f1.addr, want)
		}
	}
	r := &replicated{t: t, topo: topo, pc: w.c, readers: []*server.Client{f1.dial(), f2.dial()}, dirty: true}
	m = oracle.Run(t, stream(9, 200, 0, mixed), m, r.posture())
	writeBlocks(t, prim, 1)
	fence(t, topo)
	checkBlocks(t, f1, 2)
	checkBlocks(t, f2, 2)

	// The checkpoint rotates the primary's log while f1 is down, so its
	// restart catches up from the archive.
	prim.expect("/save", "checkpoint complete")
	f1.kill()
	r.topo.Followers, r.readers = []string{f2.addr}, []*server.Client{f2.dial()}
	m = oracle.Run(t, stream(10, 100, 0, mixed), m, r.posture())
	writeBlocks(t, prim, 2)
	f1.restart()
	r.topo.Followers, r.readers, r.dirty = []string{f1.addr}, []*server.Client{f1.dial()}, true
	oracle.Run(t, stream(11, 100, 0, mixed), m, r.posture())
	fence(t, topo)
	checkBlocks(t, f1, 3)
	checkBlocks(t, f2, 3)

	if resp := f1.do("INSERT INTO t VALUES (1, 1, 1, 1)"); !strings.Contains(resp.Err, "read-only follower") {
		t.Fatalf("a follower answered a write with %+v", resp)
	}
	if !hasSample(prim.text("/metrics"), "crackdb_repl_follower_lag_records") {
		t.Error("the primary's /metrics lacks crackdb_repl_follower_lag_records")
	}
	if !hasSample(f1.text("/metrics"), "crackdb_repl_apply_lag_records") {
		t.Error("the follower's /metrics lacks crackdb_repl_apply_lag_records")
	}

	// SIGTERM does not wait out the shutdown grace for connections doing
	// nothing: an idle raw connection, the clients above, and the
	// followers' parked pulls.
	idle, err := net.Dial("tcp", prim.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	start := time.Now()
	for _, p := range []*proc{f1, f2, prim} {
		p.term()
	}
	for _, p := range []*proc{f1, f2, prim} {
		p.exit()
	}
	if took := time.Since(start); took >= 2*time.Second {
		t.Fatalf("three servers took %v to exit after SIGTERM, want < 2 s", took)
	}
}

// testRebootstrap: a follower silent past the primary's 20 s
// followerSeenWindow no longer pins the archive, so the checkpoints
// after it prune its log position. Woken, it exits non-zero instead of
// serving reads that never advance; its restart re-bootstraps,
// downloading the new chain elements and reusing the unchanged base,
// installs the chain flat in its data dir, and reads exactly.
func testRebootstrap(t *testing.T) {
	t.Parallel()
	prim := boot(t, "-shards", "4", "-partition", "range", "-data", t.TempDir())
	w := newWire(prim)
	m := oracle.Run(t, stream(12, 200, 50_000, reads), nil, w.posture())
	// Sparse rounds of four rows, each checkpointed as a delta.
	rounds := func(from, to int64) {
		for i := from; i <= to; i++ {
			m = oracle.Run(t, insert(domain+i*10+1, domain+i*10+2, domain+i*10+3, domain+i*10+4), m, w.posture())
			prim.expect("/save", "(delta)")
		}
	}
	// Five rotations prune the log's start, so the followers bootstrap
	// from a checkpoint: a fresh full base.
	prim.expect("/save full", "(full)")
	rounds(1, 5)
	prim.expect("/save full", "(full)")
	f1dir := t.TempDir()
	f1 := boot(t, "-follow", prim.addr, "-data", f1dir)
	f2 := boot(t, "-follow", prim.addr, "-data", t.TempDir())
	f1.expect("/repl", "role\tfollower")
	// f1 freezes with its pull parked on the primary. The live follower
	// keeps pulling, so once the window passes the floor lifts, and six
	// rotations outrun the four kept segments and whatever records the
	// parked pull still hands f1.
	f1.cmd.Process.Signal(syscall.SIGSTOP)
	time.Sleep(21 * time.Second)
	rounds(6, 11)
	f1.cmd.Process.Signal(syscall.SIGCONT)
	select {
	case <-f1.exited:
	case <-time.After(10 * time.Second):
		t.Fatal("a follower whose log position the primary pruned still serves 10 s after waking")
	}
	if code := f1.cmd.ProcessState.ExitCode(); code == 0 || !strings.Contains(f1.stderr.String(), "fell behind the archived log") {
		t.Fatalf("a follower whose log position was pruned exited with status %d\n--- stderr ---\n%s", code, f1.stderr)
	}
	f1.restart()
	reused, fetched := gauge(f1, "crackdb_repl_bootstrap_reused_bytes"), gauge(f1, "crackdb_repl_bootstrap_downloaded_bytes")
	t.Logf("re-bootstrap reused %.0f bytes, downloaded %.0f", reused, fetched)
	if fetched <= 0 || reused <= 2*fetched {
		t.Fatalf("re-bootstrap reused %.0f bytes and downloaded %.0f: want 0 < 2 x downloaded < reused", reused, fetched)
	}
	if len(manifests(t, f1dir)) == 0 {
		t.Fatalf("%s holds no ckpt-*.json", f1dir)
	}
	r := &replicated{t: t, topo: server.Topology{Primary: prim.addr, Followers: []string{f1.addr}},
		pc: w.c, readers: []*server.Client{f1.dial()}, dirty: true}
	oracle.Run(t, stream(13, 200, 0, reads), m, r.posture())
	f1.term()
	f2.term()
	f1.exit()
	f2.exit()
}
