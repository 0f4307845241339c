package server

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"crackdb/internal/shard"
	"crackdb/internal/tuner"
)

// Eight clients pipeline windows of range counts concurrently, each
// request with a distinct width so a response routed to the wrong
// request is caught by value, not just by sequence tag. The tapestry
// key is a permutation of 1..n, so every in-bounds count equals its
// width exactly. Send/Recv are interleaved mid-window to exercise
// partial drains; runs under -race in CI.
func TestPipelinedClientsOrdering(t *testing.T) {
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
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialTimeout(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			p := c.Pipeline()
			for round := 0; round < 6; round++ {
				const window = 16
				widths := make([]int64, window)
				send := func(i int) bool {
					widths[i] = int64(100 + (w*97+round*31+i)%400)
					lo := int64(1 + (w*railSeed(round, i))%(n-500))
					err := p.Send(fmt.Sprintf(
						"SELECT COUNT(*) FROM bench WHERE c0 >= %d AND c0 < %d", lo, lo+widths[i]))
					if err != nil {
						t.Errorf("worker %d: send: %v", w, err)
						return false
					}
					return true
				}
				recv := func(i int) bool {
					resp, err := p.Recv()
					if err != nil {
						t.Errorf("worker %d round %d recv %d: %v", w, round, i, err)
						return false
					}
					if resp.Err != "" {
						t.Errorf("worker %d round %d recv %d: %s", w, round, i, resp.Err)
						return false
					}
					got, err := resp.Int64(0, 0)
					if err != nil {
						t.Errorf("worker %d round %d recv %d: %v", w, round, i, err)
						return false
					}
					if got != widths[i] {
						t.Errorf("worker %d round %d query %d: count %d, want %d",
							w, round, i, got, widths[i])
						return false
					}
					return true
				}
				// Interleaved: half the window in flight, drain a few,
				// stream the rest, then drain everything.
				for i := 0; i < window/2; i++ {
					if !send(i) {
						return
					}
				}
				if err := p.Flush(); err != nil {
					t.Errorf("worker %d: flush: %v", w, err)
					return
				}
				for i := 0; i < 3; i++ {
					if !recv(i) {
						return
					}
				}
				for i := window / 2; i < window; i++ {
					if !send(i) {
						return
					}
				}
				if err := p.Flush(); err != nil {
					t.Errorf("worker %d: flush: %v", w, err)
					return
				}
				for i := 3; i < window; i++ {
					if !recv(i) {
						return
					}
				}
				if p.InFlight() != 0 {
					t.Errorf("worker %d round %d: %d requests still in flight", w, round, p.InFlight())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func railSeed(round, i int) int { return round*1613 + i*257 + 13 }

// DoBatch over a mixed window: batchable counts interleaved with meta
// commands, projections and a failing statement. The grouping on the
// server must not disturb per-request responses or their order, and a
// statement failure must ride its own tagged response.
func TestDoBatchMixedWindow(t *testing.T) {
	addr, _, stop := startServer(t, shard.Options{Shards: 2, Kind: shard.Hash})
	defer stop()

	c, err := DialTimeout(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE ev (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i += 4 {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO ev VALUES (%d,%d),(%d,%d),(%d,%d),(%d,%d)",
			i, i%3, i+1, (i+1)%3, i+2, (i+2)%3, i+3, (i+3)%3)); err != nil {
			t.Fatal(err)
		}
	}

	resps, err := c.DoBatch([]string{
		"SELECT COUNT(*) FROM ev WHERE k >= 0 AND k < 50",
		"SELECT COUNT(*) FROM ev WHERE k >= 50 AND k < 150",
		"SELECT COUNT(*) FROM ev WHERE k = 7",
		"/ping",
		"SELECT COUNT(*) FROM ev WHERE v >= 0 AND v <= 2", // other column: own run
		"SELECT nope FROM missing",                        // failure mid-window
		"SELECT COUNT(*) FROM ev WHERE k >= 190",
		"SELECT k FROM ev WHERE k >= 3 AND k <= 5 ORDER BY k",
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := func(i int, want int64) {
		t.Helper()
		if resps[i].Err != "" {
			t.Fatalf("resp %d: %s", i, resps[i].Err)
		}
		got, err := resps[i].Int64(0, 0)
		if err != nil {
			t.Fatalf("resp %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("resp %d: count %d, want %d", i, got, want)
		}
	}
	wantCount(0, 50)
	wantCount(1, 100)
	wantCount(2, 1)
	if resps[3].Message != "pong" {
		t.Fatalf("resp 3: %+v", resps[3])
	}
	wantCount(4, 200)
	if resps[5].Err == "" {
		t.Fatal("resp 5: statement against a missing table must fail")
	}
	wantCount(6, 10)
	if len(resps[7].Rows) != 3 || resps[7].Rows[0][0] != "3" || resps[7].Rows[2][0] != "5" {
		t.Fatalf("resp 7: %+v", resps[7].Rows)
	}

	// The batched count responses must be byte-compatible with the
	// scalar fast path: same header, same cell.
	single, err := c.Exec("SELECT COUNT(*) FROM ev WHERE k >= 0 AND k < 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(resps[0].Columns) != 1 || resps[0].Columns[0] != single.Columns[0] {
		t.Fatalf("batched count header %v, scalar %v", resps[0].Columns, single.Columns)
	}
	if resps[0].Rows[0][0] != single.Rows[0][0] {
		t.Fatalf("batched count cell %q, scalar %q", resps[0].Rows[0][0], single.Rows[0][0])
	}

	// A batched run against a missing table falls back to per-request
	// dispatch with the scalar error text.
	resps, err = c.DoBatch([]string{
		"SELECT COUNT(*) FROM missing WHERE k >= 0 AND k < 10",
		"SELECT COUNT(*) FROM missing WHERE k >= 10 AND k < 20",
	})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := c.Do("SELECT COUNT(*) FROM missing WHERE k >= 0 AND k < 10")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err == "" {
			t.Fatalf("resp %d: count on a missing table must fail", i)
		}
		if r.Err != scalar.Err {
			t.Fatalf("resp %d error %q, scalar path %q", i, r.Err, scalar.Err)
		}
	}

	// An unsatisfiable range on a missing column is routed to no shard,
	// yet the batched run must still fail like each statement alone.
	empties := []string{
		"SELECT COUNT(*) FROM ev WHERE nosuch > 5 AND nosuch < 3",
		"SELECT COUNT(*) FROM ev WHERE nosuch > 7 AND nosuch < 3",
	}
	resps, err = c.DoBatch(empties)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		scalar, err := c.Do(empties[i])
		if err != nil {
			t.Fatal(err)
		}
		if scalar.Err == "" || r.Err != scalar.Err {
			t.Fatalf("resp %d error %q, scalar path %q", i, r.Err, scalar.Err)
		}
	}
}

// The frame fast paths — encode into a reused buffer, write the frame,
// read it back into a pooled buffer — must be allocation-free at steady
// state, or the pool is decoration.
func TestFramePathSteadyStateAllocs(t *testing.T) {
	resp := &Response{Columns: []string{"count(*)"}, Rows: [][]string{{"123456"}}, Seq: 42, HasSeq: true}
	var wire bytes.Buffer
	wire.Grow(1 << 12)
	bw := bufio.NewWriterSize(&wire, 1<<12) // production writes go through bufio
	buf := getFrameBuf()
	defer func() { putFrameBuf(buf) }()

	allocs := testing.AllocsPerRun(200, func() {
		wire.Reset()
		bw.Reset(&wire)
		buf = resp.encode(buf)
		if err := writeFrame(bw, buf); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode+writeFrame allocates %.1f/op at steady state, want 0", allocs)
	}

	rbuf := getFrameBuf()
	defer func() { putFrameBuf(rbuf) }()
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, 1<<12) // production reads go through bufio
	allocs = testing.AllocsPerRun(200, func() {
		rd.Reset(wire.Bytes())
		br.Reset(rd)
		p, err := readFrame(br, rbuf)
		if err != nil {
			t.Fatal(err)
		}
		rbuf = p
	})
	if allocs != 0 {
		t.Fatalf("readFrame allocates %.1f/op at steady state, want 0", allocs)
	}
}

// Tagged request / tagged response round trip at the protocol level,
// including the compatibility contract: untagged stays untagged.
func TestSequenceTagRoundTrip(t *testing.T) {
	tagged := &Response{Message: "pong", Seq: 9000000007, HasSeq: true}
	got, err := decodeResponse(tagged.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasSeq || got.Seq != 9000000007 || got.Message != "pong" {
		t.Fatalf("tagged round trip: %+v", got)
	}
	untagged := &Response{Message: "pong"}
	got, err = decodeResponse(untagged.encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasSeq {
		t.Fatalf("untagged response grew a tag: %+v", got)
	}
	if _, err := decodeResponse([]byte("@abc ok msg=hi")); err == nil {
		t.Fatal("malformed tag must fail to decode")
	}
	if _, err := decodeResponse([]byte("@12")); err == nil {
		t.Fatal("truncated tag must fail to decode")
	}

	req := parseWireReq("@7 SELECT 1")
	if !req.tagged || req.seq != 7 || req.cmd != "SELECT 1" {
		t.Fatalf("parseWireReq: %+v", req)
	}
	req = parseWireReq("SELECT 1")
	if req.tagged {
		t.Fatalf("untagged request grew a tag: %+v", req)
	}
	// A malformed tag stays in the statement and fails loudly downstream
	// instead of being silently dropped.
	req = parseWireReq("@x SELECT 1")
	if req.tagged || req.cmd != "@x SELECT 1" {
		t.Fatalf("malformed tag handling: %+v", req)
	}
}

// TestWindowTextNotRetained: a window's requests are substrings of one
// string, so a name the store keeps from one request — a table and its
// columns, a cracker column first touched by a count, a table a SELECT
// INTO or /tapestry creates — must be the store's own copy, or it would
// hold the whole window's text, here a 4 MB statement beside it, for as
// long as the table lives.
func TestWindowTextNotRetained(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures under the race detector are not the program's")
	}
	s := New(shard.New(shard.Options{Shards: 2, Kind: shard.Hash}), nil)
	s.store.EnableAutotune(tuner.DefaultConfig())
	reqs := []string{
		"CREATE TABLE kept (a, b)",
		"INSERT INTO kept VALUES (1, 2), (3, 4), (5, 6)",
		"SELECT COUNT(*) FROM kept WHERE a >= 1 AND a <= 3",
		"SELECT COUNT(*) FROM kept WHERE b >= 2 AND b <= 4",
		"SELECT COUNT(*) FROM kept WHERE b >= 4 AND b <= 6",
		"SELECT a, b INTO copied FROM kept WHERE a >= 1 AND a < 4",
		"/tapestry loaded 100 2",
		"/tune kept a ddr",
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	serve := func() {
		var frames bytes.Buffer
		for _, r := range append(reqs, "SELECT COUNT(*) FROM kept WHERE a = 7 "+strings.Repeat("-- padding\n", 400_000)) {
			if err := writeFrame(&frames, []byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		var w window
		win, err := w.read(bufio.NewReaderSize(&frames, 64<<20))
		if err != nil || len(win) != len(reqs)+1 {
			t.Fatalf("read %d requests of %d: %v", len(win), len(reqs)+1, err)
		}
		if _, err := s.serveWindow(win, func(req wireReq, resp *Response) error {
			if resp.Err != "" {
				t.Fatalf("%.40s: %s", req.cmd, resp.Err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := heap()
	serve()
	grown := int64(heap()) - int64(before)
	runtime.KeepAlive(s)
	t.Logf("the heap grew %d bytes serving a window of %d requests and one of 4.4 MB", grown, len(reqs))
	if grown > 1<<20 {
		t.Fatalf("the heap grew %d bytes: the store keeps the window's text", grown)
	}
}
