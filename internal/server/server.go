package server

import (
	"bufio"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crackdb"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// Server serves the wire protocol over a sharded cracker store. One
// goroutine per connection; the engine and store are safe for
// concurrent use, so clients run genuinely in parallel — including the
// cracking itself, which the shard router spreads over per-shard locks.
type Server struct {
	store *shard.Store
	eng   *sql.Engine
	logf  func(format string, args ...any)

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closing bool
	quit    chan struct{} // closed by Shutdown; releases parked /replpull requests
	wg      sync.WaitGroup

	// obsv is nil until EnableObservability (see obs.go in this package);
	// the request path pays one atomic load when it is off.
	obsv atomic.Pointer[serverObs]

	// repl is the replication role and peer book (see repl.go): the
	// advertised address, the primary this server follows (making it a
	// read-only replica), and per-follower pull positions.
	repl replState
}

// New wraps a sharded store. logf receives one line per lifecycle event
// (nil silences logging).
func New(store *shard.Store, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		store: store,
		eng:   sql.NewEngineOn(store),
		logf:  logf,
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It returns nil after
// a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		// Shutdown won the race before the listener was registered
		// (e.g. SIGTERM immediately after spawn): that is still a clean
		// stop, not an error — close the listener Shutdown never saw.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	s.logf("listening on %s (%d shards)", ln.Addr(), s.store.ShardCount())
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown stops accepting, lets every connection finish the window it
// is serving, waits up to timeout for those, then force-closes the
// stragglers. A connection idling between requests is not in flight:
// its read deadline is pulled to now, so its handler returns at once,
// and a /replpull parked on the commit signal answers empty.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	if !s.closing {
		close(s.quit)
	}
	s.closing = true
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.logf("shutdown complete")
}

// maxWindow bounds how many in-flight requests one connection's service
// window may hold before responses start flowing back.
const maxWindow = 128

// wireReq is one parsed request frame in a connection's service window.
type wireReq struct {
	cmd    string
	seq    uint64
	tagged bool
}

// parseWireReq splits the optional "@<seq> " pipeline tag off a request
// payload. A malformed tag is left in the statement, so it surfaces to
// the client as an ordinary parse error rather than a dropped frame. cmd
// is a substring of payload: parsing copies nothing.
func parseWireReq(payload string) wireReq {
	if len(payload) > 0 && payload[0] == '@' {
		if sp := strings.IndexByte(payload, ' '); sp >= 2 {
			if v, err := strconv.ParseUint(payload[1:sp], 10, 64); err == nil {
				return wireReq{cmd: strings.TrimSpace(payload[sp+1:]), seq: v, tagged: true}
			}
		}
	}
	return wireReq{cmd: strings.TrimSpace(payload)}
}

// A window collects one connection's service window. Each frame is read
// into frame, which the next frame overwrites, so its payload is copied
// to the end of text; read then makes one string of text, and every
// request's cmd is a substring of it: one allocation a window, not one a
// request. The buffers are reused from window to window. Whatever keeps
// a name from a request (a table, a cracker column, the tuner) keeps its
// own copy, so no window's text outlives the window.
type window struct {
	frame, text []byte
	ends        []int // text[ends[i-1]:ends[i]] is request i's payload
	reqs        []wireReq
}

// read blocks for the next request frame, then takes whatever further
// frames the client has already pipelined into br's buffer, up to
// maxWindow, and returns the window's requests. They are valid until the
// next read.
func (w *window) read(br *bufio.Reader) ([]wireReq, error) {
	payload, err := readFrame(br, w.frame)
	if err != nil {
		return nil, err
	}
	w.text, w.ends = w.text[:0], w.ends[:0]
	for {
		w.frame = payload
		w.text = append(w.text, payload...)
		w.ends = append(w.ends, len(w.text))
		if len(w.ends) == maxWindow {
			break
		}
		var ok bool
		if payload, ok, err = readBufferedFrame(br, w.frame); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	text, start := string(w.text), 0
	w.reqs = w.reqs[:0]
	for _, end := range w.ends {
		w.reqs = append(w.reqs, parseWireReq(text[start:end]))
		start = end
	}
	return w.reqs, nil
}

// handle serves one connection. The loop blocks for the first request,
// then drains whatever further frames the client has already pipelined
// into the read buffer (up to maxWindow) and serves the whole window
// before flushing: co-shard range counts inside the window collapse
// into one batched store entry, and N responses leave in one write.
// Synchronous clients see exactly the old one-in-one-out behaviour —
// their window is always a single request.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	w := window{frame: getFrameBuf(), text: getFrameBuf()}
	respBuf := getFrameBuf()
	defer func() {
		putFrameBuf(w.frame)
		putFrameBuf(w.text)
		putFrameBuf(respBuf)
	}()
	// reply encodes before it returns, so resp is read only during the
	// call, as serveWindow requires.
	reply := func(req wireReq, resp *Response) error {
		respBuf = encodeReply(respBuf, req, resp)
		return writeFrame(bw, respBuf)
	}
	for {
		win, err := w.read(br)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		s.noteWindow(len(win))
		quit, err := s.serveWindow(win, reply)
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if quit {
			return
		}
	}
}

// serveWindow answers one connection's in-flight window through reply,
// in request order. Each SQL request is parsed once, by one sql.Parser
// for the window: a count shaped like the one before it is not scanned
// again, and Classify hands it on as its folded range, with no
// statement built. Each run of parsed statements goes to the engine's
// ExecWindow, which answers each run of co-column range counts, a lone
// count too, through one batched store entry, and their answers are
// encoded one at a time from one Response.
// A /meta command, a parse error and a write refused on a follower
// answer in place between runs. A /quit answers and stops the
// connection; any requests a client pipelined behind its /quit are
// dropped with it. reply must be done with its Response when it
// returns: serveWindow reuses it for the next answer.
func (s *Server) serveWindow(win []wireReq, reply func(wireReq, *Response) error) (quit bool, err error) {
	run := make([]sql.Stmt, 0, len(win)) // the parsed statements of win[i-len(run):i]
	primary := s.primaryAddr()           // a follower refuses writes
	var parser sql.Parser
	var resp Response // each statement's answer, in turn
	flush := func(i int) error {
		if len(run) == 0 {
			return nil
		}
		reqs := win[i-len(run) : i]
		var results []sql.Result
		s.slowLog(reqs[0].cmd, len(run), func() { results = s.eng.ExecWindow(run) })
		run = run[:0]
		for k, r := range results {
			if err := reply(reqs[k], resp.answer(r)); err != nil {
				return err
			}
		}
		return nil
	}
	for i, req := range win {
		var out *Response
		if strings.HasPrefix(req.cmd, "/") {
			// A meta command sees the effects of the statements before it.
			if err := flush(i); err != nil {
				return false, err
			}
			s.slowLog(req.cmd, 1, func() { out, quit = s.meta(req.cmd) })
		} else if st, err := parser.Classify(req.cmd); err != nil {
			out = &Response{Err: err.Error()}
		} else if primary != "" && !readOnlyStmt(st) {
			out = &Response{Err: "read-only follower; primary=" + primary}
		} else {
			run = append(run, st)
			continue
		}
		if err := flush(i); err != nil {
			return false, err
		}
		if err := reply(req, out); err != nil || quit {
			return quit, err
		}
	}
	return false, flush(len(win))
}

// Answer serves one request in process, as a connection serves a window
// of one: the same Classify, follower gate, ExecWindow entry and meta
// table answer it. A SQL result's rows come back as the decimal cells a
// connection would encode, and no frame limit applies. quit reports a
// /quit.
func (s *Server) Answer(cmd string) (resp *Response, quit bool) {
	// This reply cannot fail, so neither can serveWindow.
	quit, _ = s.serveWindow([]wireReq{parseWireReq(cmd)}, func(_ wireReq, r *Response) error {
		resp = r.cells()
		return nil
	})
	return resp, quit
}

// answer makes r a statement's answer and returns it. The rows stay the
// engine's integers; encode renders them.
func (r *Response) answer(res sql.Result) *Response {
	switch {
	case res.Err != nil:
		*r = Response{Err: res.Err.Error()}
	case res.Set.Message != "":
		*r = Response{Message: res.Set.Message}
	default:
		*r = Response{Columns: res.Set.Columns, ints: res.Set.Rows}
	}
	return r
}

// statsColumns heads every /stats answer; first names what a row is.
func statsColumns(first string) []string {
	return []string{
		first, "queries", "cracks", "aux_cracks", "index_lookups",
		"pieces", "tuples_moved", "tuples_touched", "folds_ripple", "folds_rebuild", "strategy",
	}
}

func statsRow(label string, cs crackdb.ColumnStats) []string {
	strat := cs.Strategy
	if strat == "" {
		strat = "-" // fold of rows that carry no per-column strategy
	}
	return []string{
		label,
		strconv.Itoa(cs.Queries),
		strconv.Itoa(cs.Cracks),
		strconv.Itoa(cs.AuxCracks),
		strconv.Itoa(cs.IndexLookups),
		strconv.Itoa(cs.Pieces),
		strconv.FormatInt(cs.TuplesMoved, 10),
		strconv.FormatInt(cs.TuplesTouched, 10),
		strconv.Itoa(cs.RippleFolds),
		strconv.Itoa(cs.RebuildFolds),
		strat,
	}
}
