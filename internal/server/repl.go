package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"crackdb/internal/durable"
	"crackdb/internal/obs"
	"crackdb/internal/sql"
)

// Replication metas. The WAL is the replication stream (see
// internal/shard/repl.go); this file puts the primary's side of it on
// the wire and marks a server as a read-only follower. Everything rides
// the existing framed request/response protocol — a follower is just
// another client, pulling:
//
//	/repl                              topology + log positions, key/value rows
//	/replmanifest                      checkpoint image manifest, base64 JSON
//	/replfetch <seq> <path> <off> <n>  one image chunk, base64 (seq-fenced)
//	/replpull <from> <max> [addr seq]  committed records from seq, long-polled
//	/replwait <seq> [timeoutms]        block until the local log reaches seq
//
// Binary payloads travel base64-encoded in "ok msg=" responses: the
// status line is newline-sanitized, and base64 never contains one.

// replPollWindow bounds how long one /replpull parks on the commit
// signal before answering empty. Short enough that a follower's
// connection never looks dead; long enough that an idle primary serves
// ~one frame a second per follower.
const replPollWindow = 900 * time.Millisecond

// replState is the server's replication role and peer book.
type replState struct {
	mu        sync.Mutex
	advertise string // address peers should dial to reach this server
	primary   string // non-empty: this server is a follower of that address
	followers map[string]followerInfo
}

// followerInfo is the primary's view of one follower, refreshed by its
// /replpull heartbeats.
type followerInfo struct {
	applied uint64 // next seq the follower will apply (its local log frontier)
	seen    time.Time
}

// SetAdvertise records the address this server publishes in /repl so
// peers (and Discover) can re-dial it.
func (s *Server) SetAdvertise(addr string) {
	s.repl.mu.Lock()
	s.repl.advertise = addr
	s.repl.mu.Unlock()
}

// SetPrimary marks this server as a read-only follower of addr: SQL
// writes are refused with the primary's address so clients can
// redirect, while SELECTs serve from the follower's own independently
// cracked state.
func (s *Server) SetPrimary(addr string) {
	s.repl.mu.Lock()
	s.repl.primary = addr
	s.repl.mu.Unlock()
}

// primaryAddr returns the primary this server follows, or "" on a
// primary.
func (s *Server) primaryAddr() string {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.primary
}

// followerSeenWindow bounds how long a silent follower keeps protecting
// archived WAL segments from pruning: one that has not heartbeated for
// this long is presumed gone and will re-bootstrap from the snapshot if
// it returns after its position rotated out.
const followerSeenWindow = 20 * time.Second

// noteFollower records one follower heartbeat and refreshes the WAL
// prune floor: no archived segment a recently-seen follower still needs
// (its acked position or later) is ever pruned, however small the
// retention bound, so a slow-but-connected follower never falls off the
// stream into a forced re-bootstrap.
func (s *Server) noteFollower(addr string, applied uint64) {
	if addr == "" {
		return
	}
	s.repl.mu.Lock()
	if s.repl.followers == nil {
		s.repl.followers = make(map[string]followerInfo)
	}
	s.repl.followers[addr] = followerInfo{applied: applied, seen: time.Now()}
	s.repl.mu.Unlock()
	s.refreshPruneFloor()
}

// refreshPruneFloor recomputes the WAL prune floor from the followers
// seen within followerSeenWindow. Besides every heartbeat, the /save
// path calls it just before the checkpoint rotates (rotation is the
// only moment archives are pruned) — so the acked position of a
// follower that disconnected does not keep protecting archived
// segments until some other follower happens to heartbeat.
func (s *Server) refreshPruneFloor() {
	floor := ^uint64(0)
	cutoff := time.Now().Add(-followerSeenWindow)
	s.repl.mu.Lock()
	for _, fi := range s.repl.followers {
		if fi.seen.After(cutoff) && fi.applied < floor {
			floor = fi.applied
		}
	}
	s.repl.mu.Unlock()
	if w := s.store.WAL(); w != nil {
		w.SetPruneFloor(floor)
	}
}

// readOnlyStmt reports whether a parsed SQL statement is safe on a
// follower. Only plain SELECTs, and the range counts a window's Parser
// folds, qualify; SELECT INTO materializes a table and would diverge the
// replica.
func readOnlyStmt(st sql.Stmt) bool {
	switch s := st.(type) {
	case *sql.RangeCount:
		return true
	case *sql.Select:
		return s.Into == ""
	}
	return false
}

// replCollect exports replication gauges at scrape time: the log
// positions on any durable server, and per-follower lag on a primary.
// Lag is measured in records against the primary's next seq — the
// figure a follower's /replpull heartbeat reports is its own log
// frontier, which trails by exactly the unshipped suffix.
func (s *Server) replCollect(e *obs.Exporter) {
	w := s.store.WAL()
	if w == nil {
		return
	}
	st := w.Status()
	frontier, _ := w.CommitSignal()
	e.Gauge("crackdb_repl_wal_base_seq", "Base seq of the live WAL segment (newest checkpoint).", float64(st.BaseSeq))
	e.Gauge("crackdb_repl_wal_next_seq", "Next WAL seq to be assigned.", float64(st.NextSeq))
	e.Gauge("crackdb_repl_wal_durable_seq", "Durable WAL frontier (one past the last fsynced record).", float64(frontier))
	now := time.Now()
	s.repl.mu.Lock()
	for addr, fi := range s.repl.followers {
		lag := int64(st.NextSeq) - int64(fi.applied)
		if lag < 0 {
			lag = 0
		}
		e.Gauge("crackdb_repl_follower_lag_records", "Records the follower has not yet pulled.", float64(lag), obs.L("follower", addr))
		e.Gauge("crackdb_repl_follower_idle_seconds", "Seconds since the follower's last pull.", now.Sub(fi.seen).Seconds(), obs.L("follower", addr))
	}
	s.repl.mu.Unlock()
}

// replStatusMeta answers /repl: role, topology and log positions as
// key/value rows. Followers appear one row each (key "follower"), so a
// client discovers the whole topology from any member.
func (s *Server) replStatusMeta([]string) (*Response, bool) {
	s.repl.mu.Lock()
	advertise, primary := s.repl.advertise, s.repl.primary
	type fRow struct {
		addr string
		info followerInfo
	}
	var frows []fRow
	for addr, fi := range s.repl.followers {
		frows = append(frows, fRow{addr, fi})
	}
	s.repl.mu.Unlock()
	sort.Slice(frows, func(i, j int) bool { return frows[i].addr < frows[j].addr })

	role := "primary"
	if primary != "" {
		role = "follower"
	}
	opts := s.store.Options()
	resp := &Response{Columns: []string{"key", "value"}}
	kv := func(k, v string) { resp.Rows = append(resp.Rows, []string{k, v}) }
	kv("role", role)
	kv("addr", advertise)
	kv("primary", primary)
	kv("shards", strconv.Itoa(opts.Shards))
	kv("kind", string(opts.Kind))
	if w := s.store.WAL(); w != nil {
		st := w.Status()
		frontier, _ := w.CommitSignal()
		kv("durable", "true")
		kv("base", strconv.FormatUint(st.BaseSeq, 10))
		kv("next", strconv.FormatUint(st.NextSeq, 10))
		kv("committed", strconv.FormatUint(frontier, 10))
	} else {
		kv("durable", "false")
	}
	for _, f := range frows {
		kv("follower", fmt.Sprintf("%s %d %d", f.addr, f.info.applied, time.Since(f.info.seen).Milliseconds()))
	}
	return resp, false
}

// replManifestMeta answers /replmanifest: the checkpoint image manifest
// as base64 JSON, stamped with the seq the image covers.
func (s *Server) replManifestMeta([]string) (*Response, bool) {
	m, err := s.store.ReplManifest()
	if err != nil {
		return &Response{Err: err.Error()}, false
	}
	b, err := json.Marshal(m)
	if err != nil {
		return &Response{Err: err.Error()}, false
	}
	return &Response{Message: "manifest " + base64.StdEncoding.EncodeToString(b)}, false
}

// replFetchMeta answers /replfetch <seq> <path> <off> <n>: one chunk of
// a checkpoint-image file, base64-encoded, refused if a checkpoint has
// superseded the image since the manifest was fetched.
func (s *Server) replFetchMeta(fields []string) (*Response, bool) {
	if len(fields) != 5 {
		return nil, false
	}
	seq, err1 := strconv.ParseUint(fields[1], 10, 64)
	off, err2 := strconv.ParseInt(fields[3], 10, 64)
	n, err3 := strconv.Atoi(fields[4])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, false
	}
	chunk, err := s.store.ReplReadFile(seq, fields[2], off, n)
	if err != nil {
		return &Response{Err: err.Error()}, false
	}
	return &Response{Message: "chunk " + base64.StdEncoding.EncodeToString(chunk)}, false
}

// replPullMeta answers /replpull <from> <maxBytes> [<addr> <applied>]:
// the log's committed frames from seq on, base64-encoded as the segment
// holds them. When the log has nothing past from, the request parks on
// the commit signal up to replPollWindow before answering empty — the
// follower long-polls instead of spinning, and a commit wakes every
// parked puller at once (as does Shutdown, which must not wait out the
// window). The optional
// addr/applied pair is the follower's heartbeat for the lag gauges. A
// from that has fallen behind the archived log answers "snapshot
// required base=<n>"; the follower must re-bootstrap.
func (s *Server) replPullMeta(fields []string) (*Response, bool) {
	if len(fields) != 3 && len(fields) != 5 {
		return nil, false
	}
	from, err1 := strconv.ParseUint(fields[1], 10, 64)
	maxBytes, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || maxBytes <= 0 {
		return nil, false
	}
	if len(fields) == 5 {
		applied, err := strconv.ParseUint(fields[4], 10, 64)
		if err != nil {
			return &Response{Err: "bad applied seq: " + err.Error()}, false
		}
		s.noteFollower(fields[3], applied)
	}
	w := s.store.WAL()
	deadline := time.Now().Add(replPollWindow)
	for {
		// Subscribe before reading: a commit landing between the read and
		// the park still closes this channel, so no wakeup is lost.
		_, ch := w.CommitSignal()
		frames, next, err := w.ReadCommitted(from, maxBytes)
		if err != nil {
			if sre, isSnap := err.(*durable.SnapshotRequiredError); isSnap {
				return &Response{Err: fmt.Sprintf("snapshot required base=%d", sre.BaseSeq)}, false
			}
			return &Response{Err: err.Error()}, false
		}
		wait := time.Until(deadline)
		if len(frames) > 0 || wait <= 0 {
			frontier, _ := w.CommitSignal()
			return &Response{Message: fmt.Sprintf("next=%d durable=%d recs=%s",
				next, frontier, base64.StdEncoding.EncodeToString(frames))}, false
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
		case <-t.C:
		case <-s.quit:
			deadline = time.Now() // shutting down: answer what is there
		}
		t.Stop()
	}
}

// replWaitMeta answers /replwait <seq> [timeoutms]: block until the
// local log's next seq reaches seq. On a follower this is the
// read-your-writes fence — Apply re-logs every shipped record, so the
// local frontier is exactly the applied position. Default timeout 10s.
func (s *Server) replWaitMeta(fields []string) (*Response, bool) {
	if len(fields) != 2 && len(fields) != 3 {
		return nil, false
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return &Response{Err: "bad seq: " + err.Error()}, false
	}
	timeout := 10 * time.Second
	if len(fields) == 3 {
		ms, err := strconv.Atoi(fields[2])
		if err != nil || ms < 0 {
			return &Response{Err: "bad timeout"}, false
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	w := s.store.WAL()
	deadline := time.Now().Add(timeout)
	for {
		_, ch := w.CommitSignal()
		next := w.Seq()
		if next >= seq {
			// A seq is assigned at log time, before the record's in-memory
			// application finishes; drain in-flight mutators so the fence
			// never releases a reader into a half-applied batch.
			s.store.ApplyBarrier()
			return &Response{Message: fmt.Sprintf("reached seq=%d", next)}, false
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return &Response{Err: fmt.Sprintf("timeout waiting for seq %d (at %d)", seq, next)}, false
		}
		// The commit signal fires on fsync, which can trail an applied
		// record by one flusher tick; the short poll floor covers the gap.
		if wait > 25*time.Millisecond {
			wait = 25 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
	}
}
