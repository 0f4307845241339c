package server

import (
	"fmt"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"crackdb/internal/shard"
)

// startObsServer is startDurableServer with observability enabled: the
// slow-query threshold is slow, and every logf line is captured into
// the returned recorder.
func startObsServer(t *testing.T, dir string, opts shard.Options, slow time.Duration) (string, *logRecorder, func()) {
	t.Helper()
	st, _, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := &logRecorder{}
	srv := New(st, rec.logf)
	srv.EnableObservability(slow, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return ln.Addr().String(), rec, func() {
		srv.Shutdown(2 * time.Second)
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v after shutdown, want nil", err)
		}
		if err := st.CloseWAL(); err != nil {
			t.Errorf("CloseWAL: %v", err)
		}
	}
}

type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (r *logRecorder) logf(format string, args ...any) {
	r.mu.Lock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *logRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.lines...)
}

// driveWorkload creates a table on the wire, inserts rows and runs
// selective range queries so cracking, WAL commits and routed fan-outs
// all happen.
func driveWorkload(t *testing.T, c *Client) {
	t.Helper()
	mustExec := func(stmt string) *Response {
		t.Helper()
		resp, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return resp
	}
	mustExec("CREATE TABLE ev (k INT, v INT)")
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d,%d)", i, i*3))
	}
	mustExec("INSERT INTO ev VALUES " + strings.Join(vals, ","))
	for _, q := range []string{
		"SELECT k FROM ev WHERE k >= 10 AND k < 50",
		"SELECT k FROM ev WHERE k >= 120 AND k < 180",
		"SELECT v FROM ev WHERE v >= 30 AND v < 90",
		"SELECT COUNT(*) FROM ev WHERE k >= 40 AND k < 160",
	} {
		mustExec(q)
	}
}

// Prometheus text grammar, strict: every line is HELP, TYPE or a
// sample; sample names and label pairs must match exactly.
var (
	helpRE   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRE   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|\+Inf|NaN)$`)
)

func TestServerMetricsExposition(t *testing.T) {
	addr, _, stop := startObsServer(t, t.TempDir(), shard.Options{Shards: 2, Kind: shard.Hash}, 0)
	defer stop()
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	driveWorkload(t, c)
	if resp, err := c.Exec("/save"); err != nil || resp.Err != "" {
		t.Fatalf("/save: %+v, %v", resp, err)
	}

	resp, err := c.Exec("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("/metrics: %s", resp.Err)
	}
	if len(resp.Columns) != 1 {
		t.Fatalf("metrics response has %d columns, want 1", len(resp.Columns))
	}

	seenSamples := make(map[string]bool) // name+labels -> reject duplicates
	typed := make(map[string]bool)       // family -> TYPE already seen
	sampleNames := make(map[string]bool)
	for _, row := range resp.Rows {
		if len(row) != 1 {
			t.Fatalf("metrics row with %d cells: %v", len(row), row)
		}
		line := row[0]
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRE.MatchString(line) {
				t.Fatalf("malformed HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if typed[m[1]] {
				t.Fatalf("duplicate TYPE for family %s", m[1])
			}
			typed[m[1]] = true
		default:
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line: %q", line)
			}
			key := m[1] + m[2]
			if seenSamples[key] {
				t.Fatalf("duplicate sample series: %q", key)
			}
			seenSamples[key] = true
			sampleNames[m[1]] = true
		}
	}

	// The acceptance families: query-latency histograms, WAL fsync
	// timings, per-shard routed counts, sideways hit/miss counters.
	for _, want := range []string{
		"crackdb_query_latency_ns_bucket",
		"crackdb_query_latency_ns_sum",
		"crackdb_query_latency_ns_count",
		"crackdb_wal_fsync_ns_count",
		"crackdb_wal_append_ns_count",
		"crackdb_shard_routed_queries_total",
		"crackdb_shard_routed_inserts_total",
		"crackdb_sideways_hits_total",
		"crackdb_sideways_misses_total",
		"crackdb_server_requests_total",
		"crackdb_checkpoint_ns_count",
		"crackdb_queries_total",
		"crackdb_folds_total",
		"crackdb_pieces",
		"store_uptime_seconds",
		"restarts_total",
	} {
		if !sampleNames[want] {
			t.Errorf("metrics exposition is missing %s", want)
		}
	}
	// Both shards must appear on the routed-query counter.
	for _, shardLbl := range []string{`shard="0"`, `shard="1"`} {
		found := false
		for key := range seenSamples {
			if strings.HasPrefix(key, "crackdb_shard_routed_queries_total{") && strings.Contains(key, shardLbl) {
				found = true
			}
		}
		if !found {
			t.Errorf("no crackdb_shard_routed_queries_total series with %s", shardLbl)
		}
	}
}

// TestMetricsWithoutObservability: a server whose embedder never called
// EnableObservability refuses /metrics naming that call. cracksrv always
// makes it, so no cracksrv flag is the remedy.
func TestMetricsWithoutObservability(t *testing.T) {
	resp, _ := New(shard.New(shard.Options{Shards: 1}), nil).serveOne("/metrics")
	if want := "observability was never enabled on this server (Server.EnableObservability)"; resp.Err != want {
		t.Fatalf("/metrics: err %q, want %q", resp.Err, want)
	}
}

func TestServerStatsSummary(t *testing.T) {
	addr, _, stop := startObsServer(t, t.TempDir(), shard.Options{Shards: 2, Kind: shard.Hash}, 0)
	defer stop()
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	driveWorkload(t, c)

	resp, err := c.Exec("/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("/stats: %s", resp.Err)
	}
	// Column rows and shard rows are two folds of the same per-shard
	// counters: each must add up to the grand total.
	scopes := make(map[string]bool)
	var byColumn, byShard, total int64
	for i, row := range resp.Rows {
		scopes[row[0]] = true
		q, err := resp.Int64(i, 1)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case row[0] == "total":
			total = q
		case strings.HasPrefix(row[0], "shard"):
			byShard += q
		default:
			byColumn += q
		}
	}
	if total == 0 || byColumn != total || byShard != total {
		t.Errorf("/stats queries: columns sum %d, shards sum %d, total %d", byColumn, byShard, total)
	}
	for _, want := range []string{"ev.k", "ev.v", "shard0", "shard1", "total"} {
		if !scopes[want] {
			t.Errorf("/stats summary is missing scope %q (have %v)", want, scopes)
		}
	}
	// The 2-arg form still answers per-shard rows plus a total.
	resp, err = c.Exec("/stats ev k")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || len(resp.Rows) != 3 {
		t.Fatalf("/stats ev k: %+v", resp)
	}
}

func TestServerSlowQueryLog(t *testing.T) {
	// A 1ns threshold makes every statement slow; the first selective
	// select must show up with the crack events it caused.
	addr, rec, stop := startObsServer(t, t.TempDir(), shard.Options{Shards: 2, Kind: shard.Hash}, time.Nanosecond)
	defer stop()
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	driveWorkload(t, c)
	// An insert below registered cuts: the next statement on k cracks
	// nothing, but its fold shifts cuts — a reorganization the log names.
	for _, stmt := range []string{"INSERT INTO ev VALUES (15, 1)", "SELECT COUNT(*) FROM ev WHERE k >= 40 AND k < 160"} {
		if resp, err := c.Exec(stmt); err != nil || resp.Err != "" {
			t.Fatalf("%s: %+v, %v", stmt, resp, err)
		}
	}

	var slow, crackLines, foldLines int
	for _, line := range rec.snapshot() {
		if strings.Contains(line, "slow query") {
			slow++
		}
		if strings.Contains(line, "crack shard=") && strings.Contains(line, "col=") {
			crackLines++
		}
		if strings.Contains(line, "col=ev.k") && strings.Contains(line, "cracks=0") && strings.Contains(line, "fold=ripple folded=1") {
			foldLines++
		}
	}
	if foldLines != 1 {
		t.Fatalf("slow-query log lists %d cut-moving folds, want 1:\n%s", foldLines, strings.Join(rec.snapshot(), "\n"))
	}
	if slow == 0 {
		t.Fatal("no slow-query log lines at a 1ns threshold")
	}
	if crackLines == 0 {
		t.Fatal("slow-query log never listed a crack event")
	}
}

// TestServerSlowRunLog: a pipelined run of counts on one column is one
// ExecWindow call the engine folds into a batch, and at a 1ns threshold
// it logs one "slow query run" line naming the run's length, its first
// statement and the crack events it caused.
func TestServerSlowRunLog(t *testing.T) {
	addr, rec, stop := startObsServer(t, t.TempDir(), shard.Options{Shards: 2, Kind: shard.Hash}, time.Nanosecond)
	defer stop()
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	driveWorkload(t, c)
	counts := make([]string, 8)
	for i := range counts {
		counts[i] = fmt.Sprintf("SELECT COUNT(*) FROM ev WHERE v >= %d AND v < %d", 100+20*i, 109+20*i)
	}
	resps, err := c.DoBatch(counts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != "" || len(r.Rows) != 1 || r.Rows[0][0] != "3" {
			t.Fatalf("%s: %+v", counts[i], r)
		}
	}
	lines := rec.snapshot()
	want := fmt.Sprintf("slow query run (%d statements, ", len(counts))
	for i, line := range lines {
		if !strings.HasPrefix(line, want) {
			continue
		}
		if !strings.HasSuffix(line, "crack events): "+counts[0]) {
			t.Fatalf("run line does not end with the run's first statement: %s", line)
		}
		if i+1 == len(lines) || !strings.Contains(lines[i+1], "crack shard=") || !strings.Contains(lines[i+1], "col=ev.v") {
			t.Fatalf("run line is not followed by the run's crack events:\n%s", strings.Join(lines[i:], "\n"))
		}
		return
	}
	t.Fatalf("no %q line in the slow-query log:\n%s", want, strings.Join(lines, "\n"))
}
