package server

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"crackdb"
)

// metaCmd is one /command of the wire protocol. The table below is the
// whole meta layer: dispatch, the two refusal gates and /help all read
// it, so a command cannot exist without a usage line or dodge a gate.
type metaCmd struct {
	name string
	// usage is the command's synopsis. /help prints it, and a handler
	// that returns a nil response has it answered as "usage: <usage>".
	usage string
	// primaryOnly commands append to the WAL: run locally on a follower
	// they would desynchronize its log position from the primary's, so a
	// follower refuses them with the primary's address — run them there,
	// the record replicates like any other.
	primaryOnly bool
	// needsWAL commands are refused on a volatile store.
	needsWAL bool
	run      func(s *Server, fields []string) (*Response, bool)
}

// metas is filled by init: helpMeta reads the table its own entry is in.
var metas []metaCmd

func init() {
	metas = []metaCmd{
		{name: "/ping", usage: "/ping", run: func(*Server, []string) (*Response, bool) {
			return &Response{Message: "pong"}, false
		}},
		{name: "/help", usage: "/help", run: helpMeta},
		{name: "/tables", usage: "/tables", run: (*Server).tablesMeta},
		{name: "/shards", usage: "/shards", run: (*Server).shardsMeta},
		{name: "/stats", usage: "/stats [<table> <column>]", run: (*Server).statsMeta},
		{name: "/metrics", usage: "/metrics", run: (*Server).metricsMeta},
		{name: "/tune", usage: "/tune [<table> <column> <strategy>|auto]", run: (*Server).tuneMeta},
		{name: "/tapestry", usage: "/tapestry <name> <n> <alpha> [seed]", primaryOnly: true, run: (*Server).tapestryMeta},
		{name: "/save", usage: "/save [full]", needsWAL: true, run: (*Server).saveMeta},
		{name: "/wal", usage: "/wal", needsWAL: true, run: (*Server).walMeta},
		{name: "/repl", usage: "/repl", run: (*Server).replStatusMeta},
		{name: "/replmanifest", usage: "/replmanifest", run: (*Server).replManifestMeta},
		{name: "/replfetch", usage: "/replfetch <seq> <path> <off> <len>", run: (*Server).replFetchMeta},
		{name: "/replpull", usage: "/replpull <from> <maxbytes> [<addr> <applied>]", needsWAL: true, run: (*Server).replPullMeta},
		{name: "/replwait", usage: "/replwait <seq> [timeoutms]", needsWAL: true, run: (*Server).replWaitMeta},
		{name: "/quit", usage: "/quit", run: func(*Server, []string) (*Response, bool) {
			return &Response{Message: "bye"}, true
		}},
	}
}

// meta executes a /command: look it up, apply its gates, run it.
func (s *Server) meta(cmd string) (*Response, bool) {
	fields := strings.Fields(cmd)
	i := slices.IndexFunc(metas, func(m metaCmd) bool { return m.name == fields[0] })
	if i < 0 {
		return &Response{Err: fmt.Sprintf("unknown command %s (try /help)", fields[0])}, false
	}
	m := &metas[i]
	if m.primaryOnly {
		if p := s.primaryAddr(); p != "" {
			return &Response{Err: "read-only follower; primary=" + p}, false
		}
	}
	if m.needsWAL && s.store.WAL() == nil {
		return &Response{Err: "store is not durable (start with -data)"}, false
	}
	resp, quit := m.run(s, fields)
	if resp == nil {
		resp = &Response{Err: "usage: " + m.usage}
	}
	return resp, quit
}

func helpMeta(*Server, []string) (*Response, bool) {
	usages := make([]string, len(metas))
	for i, m := range metas {
		usages[i] = m.usage
	}
	return &Response{Message: strings.Join(usages, " | ") + " — anything else is SQL"}, false
}

func (s *Server) tablesMeta([]string) (*Response, bool) {
	resp := &Response{Columns: []string{"table", "rows", "columns"}}
	for _, t := range s.store.Tables() {
		n, err := s.store.NumRows(t)
		if err != nil {
			return &Response{Err: err.Error()}, false
		}
		cols, err := s.store.Columns(t)
		if err != nil {
			return &Response{Err: err.Error()}, false
		}
		resp.Rows = append(resp.Rows, []string{t, strconv.Itoa(n), strings.Join(cols, ",")})
	}
	return resp, false
}

func (s *Server) shardsMeta([]string) (*Response, bool) {
	resp := &Response{Columns: []string{"table", "key", "scheme", "shards"}}
	for _, p := range s.store.Partitions() {
		resp.Rows = append(resp.Rows, []string{p.Table, p.Key, p.Scheme, strconv.Itoa(p.Shards)})
	}
	return resp, false
}

// statsMeta answers /stats <table> <column>: the column's crack counters
// per shard plus their total (a bare /stats is statsSummary).
func (s *Server) statsMeta(fields []string) (*Response, bool) {
	if len(fields) == 1 {
		return s.statsSummary()
	}
	if len(fields) != 3 {
		return nil, false
	}
	per, err := s.store.ShardStats(fields[1], fields[2])
	if err != nil {
		return &Response{Err: err.Error()}, false
	}
	resp := &Response{Columns: statsColumns("shard")}
	var total crackdb.ColumnStats
	for i, cs := range per {
		resp.Rows = append(resp.Rows, statsRow(strconv.Itoa(i), cs))
		total.Add(cs)
	}
	resp.Rows = append(resp.Rows, statsRow("total", total))
	return resp, false
}

// tuneMeta inspects or overrides the auto-tuner's per-column decisions.
// Forcing is deliberately not WAL-logged (so not primaryOnly): strategies
// shape performance, never results, so a follower may run a posture of
// its own without diverging from the primary's log.
func (s *Server) tuneMeta(fields []string) (*Response, bool) {
	// The tuner runs on every shard or on none.
	if !s.store.Shard(0).AutotuneEnabled() {
		return &Response{Err: "autotune is not enabled (start cracksrv with -autotune)"}, false
	}
	if len(fields) == 1 {
		resp := &Response{Columns: []string{
			"shard", "table", "column", "strategy", "class", "flips", "queries", "forced",
		}}
		for _, d := range s.store.TuneDecisions() {
			resp.Rows = append(resp.Rows, []string{
				strconv.Itoa(d.Shard), d.Table, d.Column, d.Strategy, d.Class,
				strconv.FormatUint(d.Flips, 10), strconv.FormatUint(d.Queries, 10),
				strconv.FormatBool(d.Forced),
			})
		}
		return resp, false
	}
	if len(fields) != 4 {
		return nil, false
	}
	if fields[3] == "auto" {
		if err := s.store.ReleaseStrategy(fields[1], fields[2]); err != nil {
			return &Response{Err: err.Error()}, false
		}
		return &Response{Message: fmt.Sprintf("%s.%s released to automatic tuning", fields[1], fields[2])}, false
	}
	if err := s.store.ForceStrategy(fields[1], fields[2], fields[3]); err != nil {
		return &Response{Err: err.Error()}, false
	}
	return &Response{Message: fmt.Sprintf("%s.%s forced to %s on all %d shards", fields[1], fields[2], fields[3], s.store.ShardCount())}, false
}

func (s *Server) tapestryMeta(fields []string) (*Response, bool) {
	if len(fields) < 4 || len(fields) > 5 {
		return nil, false
	}
	n, err1 := strconv.Atoi(fields[2])
	alpha, err2 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil {
		return &Response{Err: "n and alpha must be integers"}, false
	}
	seed := int64(42)
	if len(fields) == 5 {
		v, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return &Response{Err: "bad seed: " + err.Error()}, false
		}
		seed = v
	}
	if err := s.store.LoadTapestry(fields[1], n, alpha, seed); err != nil {
		return &Response{Err: err.Error()}, false
	}
	return &Response{Message: fmt.Sprintf("loaded tapestry %s (%d x %d)", fields[1], n, alpha)}, false
}

// saveMeta checkpoints: one chain element + WAL rotation. Mutations block
// for the duration, queries keep running. A bare /save lets the store
// choose: a delta element carrying only the shards that changed, a full
// image when the chain needs one, or nothing when nothing changed.
// "/save full" forces a full image.
func (s *Server) saveMeta(fields []string) (*Response, bool) {
	if len(fields) > 2 || len(fields) == 2 && fields[1] != "full" {
		return nil, false
	}
	// Pruning happens at the rotation this checkpoint triggers; refresh
	// the floor first so a follower long gone stops pinning archives.
	s.refreshPruneFloor()
	wrote, err := s.store.Checkpoint(len(fields) == 2)
	if err != nil {
		return &Response{Err: err.Error()}, false
	}
	st := s.store.WAL().Status()
	if wrote == "" {
		return &Response{Message: fmt.Sprintf("checkpoint skipped: nothing changed, wal at seq %d", st.NextSeq)}, false
	}
	s.logf("checkpoint complete (%s, wal rotated at seq %d)", wrote, st.BaseSeq)
	return &Response{Message: fmt.Sprintf("checkpoint complete (%s), wal rotated at seq %d", wrote, st.BaseSeq)}, false
}

func (s *Server) walMeta([]string) (*Response, bool) {
	st := s.store.WAL().Status()
	return &Response{
		Columns: []string{"base_seq", "next_seq", "records", "bytes"},
		Rows: [][]string{{
			strconv.FormatUint(st.BaseSeq, 10),
			strconv.FormatUint(st.NextSeq, 10),
			strconv.FormatUint(st.Records, 10),
			strconv.FormatInt(st.Bytes, 10),
		}},
	}, false
}
