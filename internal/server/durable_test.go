package server

import (
	"net"
	"strconv"
	"testing"
	"time"

	"crackdb/internal/shard"
)

// startDurableServer is startServer over an OpenDurable store in dir.
func startDurableServer(t *testing.T, dir string, opts shard.Options) (string, *shard.Store, func()) {
	t.Helper()
	st, _, err := shard.OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return ln.Addr().String(), st, func() {
		srv.Shutdown(2 * time.Second)
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v after shutdown, want nil", err)
		}
		if err := st.CloseWAL(); err != nil {
			t.Errorf("CloseWAL: %v", err)
		}
	}
}

// TestServerSaveAndWALMetas drives the durability metas over the wire:
// INSERTs are WAL'd before the ack, /wal reports them, /save rotates the
// log, and a rebooted server serves the same data warm.
func TestServerSaveAndWALMetas(t *testing.T) {
	dir := t.TempDir()
	opts := shard.Options{Shards: 2, Kind: shard.Hash}
	addr, _, stop := startDurableServer(t, dir, opts)

	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(stmt string) *Response {
		t.Helper()
		resp, err := c.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return resp
	}
	mustExec("CREATE TABLE t (k, v)")
	mustExec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")

	wal := mustExec("/wal")
	recs, err := strconv.Atoi(wal.Rows[0][2])
	if err != nil || recs != 2 {
		t.Fatalf("/wal reports %s records (err %v), want 2 (create + insert)", wal.Rows[0][2], err)
	}

	save := mustExec("/save")
	if save.Message == "" {
		t.Fatalf("/save returned %+v", save)
	}
	wal = mustExec("/wal")
	if wal.Rows[0][2] != "0" {
		t.Fatalf("/wal after /save reports %s records, want 0", wal.Rows[0][2])
	}
	mustExec("INSERT INTO t VALUES (4, 40)")
	c.Close()
	stop()

	// Reboot from the same dir: snapshot + one replayed insert.
	addr2, st2, stop2 := startDurableServer(t, dir, opts)
	defer stop2()
	c2, err := DialTimeout(addr2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n, err := c2.Count("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("rebooted server holds %d rows, want 4", n)
	}
	if st2.WAL() == nil {
		t.Fatal("rebooted store has no WAL attached")
	}
}

// TestSaveReplies: a bare /save answers what the store chose to write —
// a full image on a fresh data dir, a delta after a write, and nothing
// (naming the WAL seq, without claiming a rotation) when nothing changed.
// The write lands on one of eight shards, so the delta stays far below
// the compaction bound.
func TestSaveReplies(t *testing.T) {
	opts := shard.Options{Shards: 8, Kind: shard.Range}
	addr, _, stop := startDurableServer(t, t.TempDir(), opts)
	defer stop()
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, _ := c.Do("CREATE TABLE t (k, v)"); resp.Err != "" {
		t.Fatalf("create: %s", resp.Err)
	}
	insertRange(t, c, "t", 0, 8000, 8000)
	for _, step := range []struct{ stmt, want string }{
		{"/save", "checkpoint complete (full), wal rotated at seq 2"},
		{"INSERT INTO t VALUES (1, 10), (2, 20)", ""},
		{"/save", "checkpoint complete (delta), wal rotated at seq 3"},
		{"/save", "checkpoint skipped: nothing changed, wal at seq 3"},
		{"/save full", "checkpoint complete (full), wal rotated at seq 3"},
		{"/save delta", "err usage: /save [full]"},
		{"/save full now", "err usage: /save [full]"},
	} {
		resp, err := c.Do(step.stmt)
		if err != nil {
			t.Fatalf("%s: %v", step.stmt, err)
		}
		got := resp.Message
		if resp.Err != "" {
			got = "err " + resp.Err
		}
		if step.want != "" && got != step.want || step.want == "" && resp.Err != "" {
			t.Fatalf("%s: got %q, want %q", step.stmt, got, step.want)
		}
	}
}
