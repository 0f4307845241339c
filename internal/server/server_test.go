package server

import (
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crackdb/internal/shard"
)

// startServer spins up a server over a fresh sharded store on a
// loopback port, returning the address, the store and a shutdown func
// that also asserts Serve exited cleanly.
func startServer(t *testing.T, opts shard.Options) (string, *shard.Store, func()) {
	t.Helper()
	st := shard.New(opts)
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
	}
}

func TestProtoRoundTrip(t *testing.T) {
	cases := []*Response{
		{Message: "pong"},
		{Err: "table \"x\" does not exist"},
		{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"-3", "4"}}},
		{Columns: []string{"count(*)"}, Rows: [][]string{}},
	}
	for _, want := range cases {
		got, err := decodeResponse(want.encode(nil))
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if got.Err != want.Err || got.Message != want.Message {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
		if want.IsTabular() {
			if len(got.Rows) != len(want.Rows) || len(got.Columns) != len(want.Columns) {
				t.Fatalf("tabular round trip %+v -> %+v", want, got)
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					if got.Rows[i][j] != want.Rows[i][j] {
						t.Fatalf("cell (%d,%d): %q != %q", i, j, got.Rows[i][j], want.Rows[i][j])
					}
				}
			}
		}
	}
	// Multi-line errors must stay single-line on the wire.
	got, err := decodeResponse((&Response{Err: "one\ntwo"}).encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != "one two" {
		t.Fatalf("sanitize: %q", got.Err)
	}
}

func TestServerEndToEnd(t *testing.T) {
	addr, st, stop := startServer(t, shard.Options{Shards: 2, Kind: shard.Hash})
	defer stop()

	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp, err := c.Exec("/ping"); err != nil || resp.Message != "pong" {
		t.Fatalf("/ping: %+v, %v", resp, err)
	}
	if _, err := c.Exec("CREATE TABLE ev (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 10 {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO ev VALUES (%d,%d),(%d,%d),(%d,%d),(%d,%d),(%d,%d),(%d,%d),(%d,%d),(%d,%d),(%d,%d),(%d,%d)",
			i, i%7, i+1, (i+1)%7, i+2, (i+2)%7, i+3, (i+3)%7, i+4, (i+4)%7,
			i+5, (i+5)%7, i+6, (i+6)%7, i+7, (i+7)%7, i+8, (i+8)%7, i+9, (i+9)%7)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.Count("SELECT COUNT(*) FROM ev")
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("COUNT(*) = %d, want 100", n)
	}
	// The server's answer must agree with the store it fronts.
	direct, err := st.CountWhere("ev")
	if err != nil {
		t.Fatal(err)
	}
	if int64(direct) != n {
		t.Fatalf("wire count %d, direct count %d", n, direct)
	}
	rc, err := c.Count("SELECT COUNT(*) FROM ev WHERE k >= 10 AND k < 30")
	if err != nil {
		t.Fatal(err)
	}
	if rc != 20 {
		t.Fatalf("range count = %d, want 20", rc)
	}
	rows, err := c.Exec("SELECT k, v FROM ev WHERE k >= 5 AND k <= 7 ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 3 || rows.Rows[0][0] != "5" || rows.Rows[2][0] != "7" {
		t.Fatalf("projection: %+v", rows.Rows)
	}
	agg, err := c.Exec("SELECT v, COUNT(*) FROM ev GROUP BY v")
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Rows) != 7 {
		t.Fatalf("GROUP BY returned %d groups, want 7", len(agg.Rows))
	}

	// Meta surface.
	tab, err := c.Exec("/tables")
	if err != nil || len(tab.Rows) != 1 || tab.Rows[0][0] != "ev" {
		t.Fatalf("/tables: %+v, %v", tab, err)
	}
	sh, err := c.Exec("/shards")
	if err != nil || len(sh.Rows) != 1 || sh.Rows[0][1] != "k" {
		t.Fatalf("/shards: %+v, %v", sh, err)
	}
	stats, err := c.Exec("/stats ev k")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Rows) != 3 { // 2 shards + total
		t.Fatalf("/stats rows = %d, want 3", len(stats.Rows))
	}
	totQ, err := stats.Int64(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if totQ == 0 {
		t.Fatalf("total queries = 0 after range selects: %+v", stats.Rows)
	}
	q0, _ := stats.Int64(0, 1)
	q1, _ := stats.Int64(1, 1)
	if q0+q1 != totQ {
		t.Fatalf("total row is not the fold of the shard rows: %+v", stats.Rows)
	}

	// Failures ride the protocol, not the transport.
	resp, err := c.Do("SELECT nope FROM missing")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("statement against a missing table must fail")
	}
	resp, err = c.Do("/bogus")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("unknown meta command must fail")
	}
	// The connection survives failed statements.
	if _, err := c.Exec("/ping"); err != nil {
		t.Fatal(err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	const n = 20000
	addr, _, stop := startServer(t, shard.Options{Shards: 4, Kind: shard.Range})
	defer stop()

	setup, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("/tapestry bench " + strconv.Itoa(n) + " 2 5"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialTimeout(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 40; i++ {
				lo := (w*40+i)*97%(n-500) + 1
				// The tapestry key is a permutation of 1..n: every range
				// count equals its width exactly.
				got, err := c.Count(fmt.Sprintf("SELECT COUNT(*) FROM bench WHERE c0 >= %d AND c0 < %d", lo, lo+500))
				if err != nil {
					t.Error(err)
					return
				}
				if got != 500 {
					t.Errorf("worker %d query %d: count %d, want 500", w, i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestServeAfterShutdownIsClean(t *testing.T) {
	// SIGTERM can land before Serve registers the listener; that must
	// still be a clean (nil) stop with the listener closed.
	srv := New(shard.New(shard.Options{}), nil)
	srv.Shutdown(time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve after Shutdown = %v, want nil", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("listener should have been closed")
	}
}

func TestServerShutdownClosesIdleConns(t *testing.T) {
	st := shard.New(shard.Options{Shards: 1})
	srv := New(st, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, err := DialTimeout(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("/ping"); err != nil {
		t.Fatal(err)
	}
	// The client idles; Shutdown must not wait out its grace on it.
	start := time.Now()
	srv.Shutdown(10 * time.Second)
	if e := time.Since(start); e > time.Second {
		t.Fatalf("Shutdown took %v with an idle connection", e)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := c.Do("/ping"); err == nil {
		t.Fatal("connection should be closed after shutdown")
	}
}

// TestServerShutdownReleasesParkedPull: a follower's /replpull parked on
// an idle primary's commit signal answers at once when the primary
// shuts down, instead of holding Shutdown for the long-poll window.
func TestServerShutdownReleasesParkedPull(t *testing.T) {
	st, _, err := shard.OpenDurable(t.TempDir(), shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.CloseWAL()
	srv := New(st, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	next := st.WAL().Seq()
	pulled := make(chan *Response, 1)
	go func() {
		resp, err := c.Do(fmt.Sprintf("/replpull %d 1024 parked %d", next, next))
		if err != nil {
			t.Error(err)
		}
		pulled <- resp
	}()
	// The heartbeat is noted before the pull parks.
	waitFollowers(t, addr, 1)
	start := time.Now()
	srv.Shutdown(10 * time.Second)
	if e := time.Since(start); e > 300*time.Millisecond {
		t.Fatalf("Shutdown took %v with a parked /replpull", e)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// The parked request still got its (empty) answer.
	if resp := <-pulled; resp == nil || resp.Err != "" || !strings.HasPrefix(resp.Message, "next=") {
		t.Fatalf("parked pull answered %+v, want an empty pull reply", resp)
	}
}

// serveOne serves cmd as a window of one — the path every request of a
// synchronous client takes — and returns its reply.
func (s *Server) serveOne(cmd string) (resp *Response, quit bool) {
	quit, _ = s.serveWindow([]wireReq{{cmd: cmd}}, func(_ wireReq, r *Response) error { resp = r; return nil })
	return resp, quit
}

// TestWindowRunsInRequestOrder: a window's statements run before a meta
// command that follows them, so the meta command sees their effects.
func TestWindowRunsInRequestOrder(t *testing.T) {
	s := New(shard.New(shard.Options{Shards: 2, Kind: shard.Hash}), nil)
	var got []Response
	win := []wireReq{{cmd: "CREATE TABLE x (a)"}, {cmd: "INSERT INTO x VALUES (1), (2)"}, {cmd: "/tables"}, {cmd: "DROP TABLE x"}, {cmd: "/tables"}}
	if _, err := s.serveWindow(win, func(_ wireReq, r *Response) error { got = append(got, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(win) {
		t.Fatalf("%d replies to %d requests", len(got), len(win))
	}
	if tables := got[2]; tables.Err != "" || len(tables.Rows) != 1 || strings.Join(tables.Rows[0], " ") != "x 2 a" {
		t.Fatalf("/tables after CREATE and INSERT answers %+v", tables)
	}
	if tables := got[4]; tables.Err != "" || len(tables.Rows) != 0 {
		t.Fatalf("/tables after DROP answers %+v", tables)
	}
}

// TestAnswerMatchesWire: Answer, the in-process entry cracksql runs on,
// answers a script as a connection does — twin servers, one asked
// through Answer and one over loopback, give the same columns, cells,
// messages and errors, and a follower refuses a write with the wire's
// text.
func TestAnswerMatchesWire(t *testing.T) {
	twins := func(primary string) (*Server, *Client) {
		opts := shard.Options{Shards: 2, Kind: shard.Hash}
		in, wire := New(shard.New(opts), nil), New(shard.New(opts), nil)
		if primary != "" {
			in.SetPrimary(primary)
			wire.SetPrimary(primary)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go wire.Serve(ln)
		t.Cleanup(func() { wire.Shutdown(2 * time.Second) })
		c, err := DialTimeout(ln.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return in, c
	}
	same := func(cmd string, in *Server, c *Client) (got *Response, quit bool) {
		t.Helper()
		got, quit = in.Answer(cmd)
		want, err := c.Do(cmd)
		if err != nil {
			t.Fatalf("%s over the wire: %v", cmd, err)
		}
		if !slices.Equal(got.Columns, want.Columns) || !slices.EqualFunc(got.Rows, want.Rows, slices.Equal) ||
			got.Message != want.Message || got.Err != want.Err {
			t.Errorf("%s: Answer gave %+v, the wire %+v", cmd, got, want)
		}
		return got, quit
	}

	in, c := twins("")
	for _, cmd := range []string{
		"/tapestry t 2000 3 7",
		"SELECT COUNT(*) FROM t WHERE c0 >= 100 AND c0 < 200",
		"SELECT COUNT(*) FROM t WHERE c0 >= 300 AND c0 < 450",
		"SELECT c0, c1, c2 FROM t WHERE c0 >= 10 AND c0 < 20",
		"INSERT INTO t VALUES (5000, 1, 2), (5001, 3, 4)",
		"SELECT COUNT(*) FROM missing WHERE a < 3",
		"/stats",
		"/tables",
	} {
		resp, quit := same(cmd, in, c)
		if quit || (resp.Err != "") != strings.Contains(cmd, "missing") {
			t.Fatalf("%s answered %+v, quit=%v", cmd, resp, quit)
		}
	}
	if _, quit := same("/quit", in, c); !quit {
		t.Fatal("/quit did not quit")
	}

	follower, fc := twins("127.0.0.1:1")
	if resp, _ := same("INSERT INTO t VALUES (1, 2, 3)", follower, fc); resp.Err != "read-only follower; primary=127.0.0.1:1" {
		t.Fatalf("a follower's Answer took a write: %+v", resp)
	}
}
