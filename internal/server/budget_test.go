package server

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"crackdb"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// The result path's budget as standing assertions (ROADMAP: acceptance
// gates as plain go test). A row fetch travels from the cracked columns
// to the client as machine words in a handful of vectors: what a
// statement allocates depends on the shard count and the column count,
// never on how many rows it returns.

// convergedRouter is a 4-shard hash router over a 3-column tapestry
// whose c0 two rounds of a 2000-range pool have cracked.
func convergedRouter(t testing.TB) *shard.Store {
	t.Helper()
	const n = 100_000
	st := shard.New(shard.Options{Shards: 4, Kind: shard.Hash})
	if err := st.LoadTapestry("t", n, 3, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pool := make([]crackdb.Range, 2000)
	for i := range pool {
		lo := 1 + rng.Int63n(n)
		pool[i] = crackdb.Range{Low: lo, High: lo + rng.Int63n(n/100)}
	}
	for i := 0; i < 2; i++ {
		if _, err := st.CountBatch("t", "c0", pool); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// fetchStack is the SQL engine on a convergedRouter.
func fetchStack(t testing.TB) *sql.Engine {
	t.Helper()
	return sql.NewEngineOn(convergedRouter(t))
}

// fetch runs the width-row fetch and checks its shape.
func fetch(t testing.TB, eng *sql.Engine, width int) *sql.ResultSet {
	rs, err := eng.Exec(fmt.Sprintf("SELECT c0, c1, c2 FROM t WHERE c0 >= 5000 AND c0 < %d", 5000+width))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != width || len(rs.Rows[0]) != 3 || rs.Rows[0][0] != 5000 || rs.Rows[width-1][0] != int64(5000+width-1) {
		t.Fatalf("fetch of %d rows returned %d, first %v", width, len(rs.Rows), rs.Rows[0])
	}
	return rs
}

func TestRowFetchBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxAllocs = 68 // measured 62; see the log line for today's
	eng := fetchStack(t)
	var allocs [2]float64
	for i, width := range []int{1000, 4000} {
		fetch(t, eng, width) // the first run cracks the range's two bounds
		allocs[i] = testing.AllocsPerRun(50, func() { fetch(t, eng, width) })
		t.Logf("Engine.Exec of a %d-row x 3-column fetch on 4 shards: %.0f allocations", width, allocs[i])
		if allocs[i] > maxAllocs {
			t.Errorf("a %d-row fetch allocates %.0f times, budget %d", width, allocs[i], maxAllocs)
		}
	}
	if allocs[1] > allocs[0]+4 {
		t.Errorf("allocations grow with the row count: %.0f at 1000 rows, %.0f at 4000", allocs[0], allocs[1])
	}
}

// TestRoutedReadBudget holds the router's share of a converged read. A
// read every target shard answers from its cracker index crosses the
// router on the calling goroutine: it allocates the answer and error
// slots and the fan-out closure it did not call (measured 3 for the
// count, 37 for the fetch), and no goroutine, whose closure and wait
// group alone would cost one allocation per shard plus one. A goroutine
// per shard made it 16 and 54. A converged batch of 8 ranges takes the
// same read-only pass (measured 6: the routing's share, sub-batch and
// counts arrays, gather's error slots and fan-out closure, the merged
// counts), each shard counting into its segment of the one counts array;
// a count slice a shard and an index scatter made it 12, and with every
// shard but one on a goroutine it made 19.
func TestRoutedReadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxCountAllocs, maxFetchAllocs, maxBatchAllocs = 4, 40, 6
	st := convergedRouter(t)
	ranges := make([]crackdb.Range, 8)
	for i := range ranges {
		lo := int64(2000 + 9000*i)
		ranges[i] = crackdb.Range{Low: lo, High: lo + 499}
	}
	batch := func() {
		counts, err := st.CountBatch("t", "c0", ranges)
		if err != nil || len(counts) != len(ranges) || counts[0] != 500 {
			t.Fatalf("CountBatch = %v, %v; want 8 counts of 500", counts, err)
		}
	}
	conds := []crackdb.Cond{{Col: "c0", Op: ">=", Val: 5000}, {Col: "c0", Op: "<", Val: 6000}}
	count := func() {
		if n, err := st.CountWhere("t", conds...); err != nil || n != 1000 {
			t.Fatalf("CountWhere = %d, %v; want 1000", n, err)
		}
	}
	fetch := func() {
		res, err := st.SelectWhere("t", conds...)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := res.Rows("c0", "c1", "c2"); err != nil || len(rows) != 1000 {
			t.Fatalf("Rows = %d rows, %v; want 1000", len(rows), err)
		}
	}
	cracks := func() int {
		per, err := st.ShardStats("t", "c0")
		if err != nil {
			t.Fatal(err)
		}
		total := crackdb.ColumnStats{}
		for _, cs := range per {
			total.Add(cs)
		}
		return total.Cracks
	}
	count() // the first runs crack the ranges' bounds on every shard
	batch()
	before := cracks()
	countAllocs := testing.AllocsPerRun(200, count)
	fetchAllocs := testing.AllocsPerRun(200, fetch)
	batchAllocs := testing.AllocsPerRun(200, batch)
	t.Logf("converged 4-shard CountWhere: %.0f allocations; SelectWhere + Rows of 3 columns: %.0f; CountBatch of %d ranges: %.0f",
		countAllocs, fetchAllocs, len(ranges), batchAllocs)
	if countAllocs > maxCountAllocs {
		t.Errorf("a converged routed count allocates %.0f times, budget %d", countAllocs, maxCountAllocs)
	}
	if fetchAllocs > maxFetchAllocs {
		t.Errorf("a converged routed fetch allocates %.0f times, budget %d", fetchAllocs, maxFetchAllocs)
	}
	if batchAllocs > maxBatchAllocs {
		t.Errorf("a converged routed batch of %d ranges allocates %.0f times, budget %d", len(ranges), batchAllocs, maxBatchAllocs)
	}
	if after := cracks(); after != before {
		t.Fatalf("c0 cracked %d times during the measurement: it was not converged", after-before)
	}
}

// TestFollowerDispatchBudget: a follower parses a statement once, to
// check that it only reads and to execute it, so a converged count
// served as a window of one costs it no more allocations than it costs
// a primary. Checking on a second parse made it 40 against 24. The
// primary's count is held to 16: a lone count is a batch of one, whose
// ranges, routing (three arrays, the shards counting into one of them)
// and merged counts take it from the 12 it cost through CountWhere.
// Four routing arrays and a count slice a shard made it 22.
func TestFollowerDispatchBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxPrimary = 16
	st := convergedRouter(t)
	primary, follower := New(st, nil), New(st, nil)
	follower.SetPrimary("127.0.0.1:1")
	const stmt = "SELECT COUNT(*) FROM t WHERE c0 >= 5000 AND c0 < 6000"
	count := func(s *Server) func() {
		return func() {
			if resp, _ := s.serveOne(stmt); resp.Err != "" || len(resp.ints) != 1 || resp.ints[0][0] != 1000 {
				t.Fatalf("%s: err %q, rows %v; want 1000", stmt, resp.Err, resp.ints)
			}
		}
	}
	count(primary)() // the first run cracks the range's two bounds on every shard
	p, f := testing.AllocsPerRun(200, count(primary)), testing.AllocsPerRun(200, count(follower))
	t.Logf("a converged SELECT COUNT(*) allocates %.0f times on a primary, %.0f on a follower", p, f)
	if f > p {
		t.Errorf("a follower's count allocates %.0f times, more than a primary's %.0f", f, p)
	}
	if p > maxPrimary {
		t.Errorf("a primary's count allocates %.0f times, budget %d", p, maxPrimary)
	}
}

// TestWindowParseBudget: the server parses each request of a pipelined
// window once and hands the parsed statements to the engine. A window
// of fetches, a GROUP BY and INSERTs — no count the engine could fold —
// costs what parsing each statement once and executing it cost, plus a
// reply apiece. Allocations count the parses: parsing a statement again,
// to classify it and then to execute it, read 2.03 parses a statement.
func TestWindowParseBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	st := shard.New(shard.Options{Shards: 2, Kind: shard.Hash})
	s := New(st, nil)
	rows := make([]string, 12)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d)", i, i%3)
	}
	insert := "INSERT INTO u VALUES " + strings.Join(rows, ", ")
	cmds := []string{
		"SELECT c0, c1 FROM t WHERE c0 >= 10 AND c0 < 20",
		insert,
		"SELECT c1, COUNT(*) FROM t WHERE c0 < 100 GROUP BY c1",
		insert,
		"SELECT c0 FROM t WHERE c0 >= 500 AND c0 <= 509 ORDER BY c0",
		insert,
	}
	for _, setup := range []string{"/tapestry t 1000 2", "CREATE TABLE u (a, b)"} {
		if resp, _ := s.serveOne(setup); resp.Err != "" {
			t.Fatalf("%s: %s", setup, resp.Err)
		}
	}
	win := make([]wireReq, len(cmds))
	stmts := make([]sql.Stmt, len(cmds))
	for i, cmd := range cmds {
		win[i].cmd = cmd
		var err error
		if stmts[i], err = sql.Parse(cmd); err != nil {
			t.Fatal(err)
		}
	}
	serve := func() {
		if _, err := s.serveWindow(win, func(req wireReq, resp *Response) error {
			if resp.Err != "" {
				t.Fatalf("%s: %s", req.cmd, resp.Err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	serve() // the first run cracks the fetches' bounds
	parse := testing.AllocsPerRun(100, func() {
		for _, cmd := range cmds {
			sql.Parse(cmd)
		}
	})
	exec := testing.AllocsPerRun(100, func() { s.eng.ExecWindow(stmts) })
	served := testing.AllocsPerRun(100, serve)
	parses := (served - exec) / parse
	t.Logf("a window of %d statements: %.0f allocations served, %.0f executed, %.0f parsed once: %.2f parses a statement",
		len(cmds), served, exec, parse, parses)
	if parses > 1.5 {
		t.Errorf("serving a window of %d statements allocates %.0f times over executing them, %.2f times parsing them once: a request is parsed more than once",
			len(cmds), served-exec, parses)
	}
}

// TestFoldedWindowBudget: a window of 64 converged range counts, what a
// pipelining client sends, is parsed a statement at a time, folded into
// one batch and encoded reply by reply. The window's Parser scans the
// first count and folds the rest from their literals into Counts it
// hands out from a few chunks, the router cuts each shard's sub-batch
// from one exactly sized array, the folded run's answers come as one
// block and every answer is encoded from one Response, so it costs less
// than one allocation a statement (0.5). A lexer that allocated per
// token and four allocations a count answer read 22, answers allocated
// one by one 8.4, a Select boxed apart from its Items and Where 4.5, and
// a Select copied for every count with a Response apiece 2.5.
func TestFoldedWindowBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxPerStmt = 1
	s := New(convergedRouter(t), nil)
	win := make([]wireReq, 64)
	for i := range win {
		lo := 1000 + 1500*i
		win[i].cmd = fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c0 >= %d AND c0 <= %d", lo, lo+999)
	}
	var frame []byte
	serve := func() {
		if _, err := s.serveWindow(win, func(req wireReq, resp *Response) error {
			if resp.Err != "" || len(resp.ints) != 1 || resp.ints[0][0] != 1000 {
				t.Fatalf("%s: err %q, rows %v; want 1000", req.cmd, resp.Err, resp.ints)
			}
			frame = encodeReply(frame, req, resp)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	serve() // the first run cracks the ranges' bounds
	perStmt := testing.AllocsPerRun(50, serve) / float64(len(win))
	t.Logf("a window of %d converged counts: %.1f allocations a statement", len(win), perStmt)
	if perStmt > maxPerStmt {
		t.Errorf("a folded window allocates %.1f times a statement, budget %d", perStmt, maxPerStmt)
	}
}

// countFrames is k tagged range counts on convergedRouter's c0, framed
// as a pipelining client sends them: @1 … @k, each range 1000 keys wide.
func countFrames(tb testing.TB, k int) []byte {
	var buf bytes.Buffer
	for i := 0; i < k; i++ {
		lo := 1000 + 1500*i
		if err := writeFrame(&buf, fmt.Appendf(nil, "@%d SELECT COUNT(*) FROM t WHERE c0 >= %d AND c0 <= %d", i+1, lo, lo+999)); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestWindowReadBudget: a connection turns a window of 64 request frames
// into its wireReqs with one allocation, the one string every request's
// text is a substring of. A string copied out of each payload made it 64.
func TestWindowReadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const maxAllocs = 2
	frames := countFrames(t, 64)
	rd := bytes.NewReader(frames)
	br := bufio.NewReaderSize(rd, 1<<16)
	var w window
	read := func() {
		rd.Reset(frames)
		br.Reset(rd)
		win, err := w.read(br)
		if err != nil || len(win) != 64 || win[63].seq != 64 || !strings.HasPrefix(win[63].cmd, "SELECT COUNT(*) FROM t WHERE c0 >= 95500 ") {
			t.Fatalf("read %d requests (%v), the last %+v", len(win), err, win[len(win)-1])
		}
	}
	read() // grows the window's buffers, as a connection's first window does
	got := testing.AllocsPerRun(100, read)
	t.Logf("reading a window of 64 frames into requests: %.0f allocations", got)
	if got > maxAllocs {
		t.Errorf("reading a window of 64 frames allocates %.0f times, budget %d", got, maxAllocs)
	}
}

// BenchmarkServeWindow times a window of 4, 13 and 64 converged, tagged
// range counts from request frames to response frames: window.read, then
// serveWindow (parse, fold, one CountBatch on a 4-shard router), then
// encodeReply, as a connection serves a pipelining client's window. What
// a window costs whatever its depth shows in the small ones: a faster
// server leaves a client less time to pipeline, so its windows shrink.
func BenchmarkServeWindow(b *testing.B) {
	s := New(convergedRouter(b), nil)
	for _, k := range []int{4, 13, 64} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			frames := countFrames(b, k)
			rd := bytes.NewReader(frames)
			br := bufio.NewReaderSize(rd, 1<<16)
			var w window
			var frame []byte
			reply := func(req wireReq, resp *Response) error {
				frame = encodeReply(frame, req, resp)
				return nil
			}
			serve := func() {
				rd.Reset(frames)
				br.Reset(rd)
				win, err := w.read(br)
				if err != nil || len(win) != k {
					b.Fatalf("read %d requests of %d: %v", len(win), k, err)
				}
				if _, err := s.serveWindow(win, reply); err != nil {
					b.Fatal(err)
				}
			}
			serve() // the first run cracks the ranges' bounds
			if want := fmt.Sprintf("@%d ok rows=1\ncount(*)\n1000\n", k); string(frame) != want {
				b.Fatalf("the last reply is %q, want %q", frame, want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/stmt")
		})
	}
}

func TestWireResultBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	rs := fetch(t, fetchStack(t), 1000)
	req := wireReq{seq: 7, tagged: true}

	frame := encodeReply(nil, req, fromResult(sql.Result{Set: rs})) // grows the buffer, as a connection's first reply does
	if got := testing.AllocsPerRun(100, func() { frame = encodeReply(frame, req, fromResult(sql.Result{Set: rs})) }); got > 2 {
		t.Errorf("rendering a 1000-row result into a frame allocates %.0f times, budget 2 (parent 4 002)", got)
	}

	const maxDecodeAllocs = 8 // parent 2 008 and a zeroed 64 KB buffer
	if got := testing.AllocsPerRun(100, func() {
		if _, err := decodeResponse(frame); err != nil {
			t.Fatal(err)
		}
	}); got > maxDecodeAllocs {
		t.Errorf("decoding the %d-byte frame allocates %.0f times, budget %d", len(frame), got, maxDecodeAllocs)
	}
	// The floor of Response's shape is 4 x the frame here: 3000 string
	// headers (48 kB) and 1000 row headers (24 kB) for 18 kB of text. One
	// copy of the text on top of that is all the decoder may add.
	got := allocatedBytes(func() { decodeResponse(frame) })
	t.Logf("decoding the %d-byte frame allocates %d bytes (%.2f x)", len(frame), got, float64(got)/float64(len(frame)))
	if got > 6*uint64(len(frame)) {
		t.Errorf("decoding the %d-byte frame allocates %d bytes, budget 6 x the frame", len(frame), got)
	}
}
