package server

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"crackdb"
	"crackdb/internal/obs"
)

// Server-side observability: request counters, pipeline window depth,
// the /metrics meta command and the slow-query log. All of it hangs off
// the store's observability layer (shard.Store.EnableObservability);
// when that is off every hook below is a single atomic load.

// serverObs is the wired server instrumentation, published through
// Server.obsv.
type serverObs struct {
	slow     time.Duration // statements at or above this land in the slow log (0 disables)
	trace    *obs.TraceBuf
	requests *obs.Counter
	window   *obs.Histogram
}

// slowLogMaxEvents bounds how many crack events one slow-log entry
// prints; a statement that cracked hundreds of pieces summarizes the
// tail.
const slowLogMaxEvents = 16

// EnableObservability turns on metrics and the slow-query log: the
// underlying store is instrumented (registries, crack-event tracing,
// WAL timings), /metrics starts answering, every request counts into
// crackdb_server_requests_total, and any statement taking slow or
// longer is logged through logf together with the crack events that
// landed during it. slow <= 0 disables the slow log but keeps metrics;
// sampleEvery thins converged-read latency timing (cracksrv passes 256;
// see crackdb.Store.EnableObservability).
func (s *Server) EnableObservability(slow time.Duration, sampleEvery int) {
	s.store.EnableObservability(sampleEvery)
	reg := s.store.Registry()
	s.obsv.Store(&serverObs{
		slow:  slow,
		trace: s.store.TraceBuf(),
		requests: reg.Counter("crackdb_server_requests_total",
			"Request frames served, across all connections."),
		window: reg.Histogram("crackdb_server_window_depth",
			"Pipelined requests per service window."),
	})
	reg.RegisterCollector(s.replCollect)
}

// noteWindow records one service window's shape.
func (s *Server) noteWindow(n int) {
	if o := s.obsv.Load(); o != nil {
		o.requests.Add(int64(n))
		o.window.Observe(int64(n))
	}
}

// slowLog runs fn, which answers n requests from first on, under the
// slow-query log: it marks the trace ring, times fn, and when the wall
// time crosses the threshold logs first — with n when fn answered a run,
// such as pipelined counts the engine folded — and every crack event
// recorded during its window. Events from concurrent statements can
// interleave — each listed event is real reorganization that contended
// with this one.
func (s *Server) slowLog(first string, n int, fn func()) {
	o := s.obsv.Load()
	if o == nil || o.slow <= 0 {
		fn()
		return
	}
	mark := o.trace.Mark()
	t0 := time.Now()
	fn()
	if d := time.Since(t0); d >= o.slow {
		evs := o.trace.Since(mark)
		if n == 1 {
			s.logf("slow query (%v, %d crack events): %s", d, len(evs), first)
		} else {
			s.logf("slow query run (%d statements, %v, %d crack events): %s", n, d, len(evs), first)
		}
		for i, ev := range evs {
			if i == slowLogMaxEvents {
				s.logf("  ... %d more crack events", len(evs)-slowLogMaxEvents)
				break
			}
			fold := ""
			if ev.Fold != "" {
				fold = fmt.Sprintf(" fold=%s folded=%d", ev.Fold, ev.Folded)
			}
			s.logf("  crack shard=%d col=%s range=[%d,%d] cracks=%d cuts=%d touched=%d moved=%d hold=%v%s",
				ev.Shard, ev.Column, ev.Low, ev.High,
				ev.Cracks, ev.CutsAdded, ev.TuplesTouched, ev.TuplesMoved,
				time.Duration(ev.HoldNS), fold)
		}
	}
}

// metricsMeta answers /metrics: the merged registry snapshot in
// Prometheus text exposition format, one line per row (the frame
// protocol's Message field is newline-sanitized, so the exposition
// rides in the tabular part).
func (s *Server) metricsMeta([]string) (*Response, bool) {
	fams, ok := s.store.Gather()
	if !ok {
		return &Response{Err: "observability was never enabled on this server (Server.EnableObservability)"}, false
	}
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, fams); err != nil {
		return &Response{Err: err.Error()}, false
	}
	resp := &Response{Columns: []string{"metrics"}}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		resp.Rows = append(resp.Rows, []string{line})
	}
	return resp, false
}

// statsSummary answers a bare /stats: one row per cracked column of
// every table (counters summed across shards), then per-shard totals
// and a grand total. Reads only non-creating accessors, so inspection
// never materializes cracker state. The strategy column is per-column
// truth: a column whose shards disagree (the auto-tuner flipping only
// the shards a hostile walk visits) reports "mixed".
func (s *Server) statsSummary() (*Response, bool) {
	resp := &Response{Columns: statsColumns("scope")}
	perShard := make([]crackdb.ColumnStats, s.store.ShardCount())
	var grand crackdb.ColumnStats
	tables := s.store.Tables()
	sort.Strings(tables)
	for _, table := range tables {
		cols := make(map[string]crackdb.ColumnStats)
		for i := range perShard {
			scols, err := s.store.Shard(i).CrackedColumnStats(table)
			if err != nil {
				continue // dropped between listing and stats
			}
			for attr, cs := range scols {
				perShard[i].Add(cs)
				t := cols[attr]
				t.Add(cs)
				cols[attr] = t
			}
		}
		attrs := make([]string, 0, len(cols))
		for attr := range cols {
			attrs = append(attrs, attr)
		}
		sort.Strings(attrs)
		for _, attr := range attrs {
			resp.Rows = append(resp.Rows, statsRow(table+"."+attr, cols[attr]))
			grand.Add(cols[attr])
		}
	}
	for i, cs := range perShard {
		resp.Rows = append(resp.Rows, statsRow("shard"+strconv.Itoa(i), cs))
	}
	resp.Rows = append(resp.Rows, statsRow("total", grand))
	return resp, false
}
