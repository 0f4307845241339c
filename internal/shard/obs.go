package shard

import (
	"strconv"
	"time"

	"crackdb/internal/durable"
	"crackdb/internal/obs"
)

// Shard-level observability: one registry per shard (so per-column
// counters never contend across shards) plus a router registry for the
// cross-shard instruments — routed-request counters, WAL latencies,
// checkpoint duration and process metadata. Gather merges the lot,
// stamping every per-shard family with a shard label.

// storeObs holds the wired instruments. It is built once by
// EnableObservability and published through an atomic pointer so the
// hot routing paths pay a single load-and-nil-check when observability
// is off.
type storeObs struct {
	router *obs.Registry
	shards []*obs.Registry
	trace  *obs.TraceBuf

	routedQueries []*obs.Counter // per shard: conjunctions fanned to it
	routedInserts []*obs.Counter // per shard: rows routed to it
	checkpointNS  *obs.Histogram
}

// EnableObservability instruments the sharded store: every shard gets
// its own registry and core.Instr (see crackdb.Store.EnableObservability),
// the router registers routed-request counters per shard, and — when the
// store is durable — the WAL reports append/fsync latency and
// group-commit batch sizes. sampleEvery thins converged-read latency
// timing (see crackdb.Store.EnableObservability). Idempotent; the
// first call wins.
func (s *Store) EnableObservability(sampleEvery int) {
	if s.obsv.Load() != nil {
		return
	}
	o := &storeObs{
		router: obs.NewRegistry(),
		shards: make([]*obs.Registry, len(s.shards)),
		trace:  obs.NewTraceBuf(1024),
	}
	o.routedQueries = make([]*obs.Counter, len(s.shards))
	o.routedInserts = make([]*obs.Counter, len(s.shards))
	for i := range s.shards {
		// Every registry exists before o is published: a concurrent Gather
		// ranges over o.shards the moment the CAS below lands.
		o.shards[i] = obs.NewRegistry()
		l := obs.L("shard", strconv.Itoa(i))
		o.routedQueries[i] = o.router.Counter("crackdb_shard_routed_queries_total",
			"Conjunctions the router fanned out to each shard.", l)
		o.routedInserts[i] = o.router.Counter("crackdb_shard_routed_inserts_total",
			"Rows the router appended to each shard.", l)
	}
	o.checkpointNS = o.router.Histogram("crackdb_checkpoint_ns",
		"Checkpoint (warm snapshot + WAL rotation) duration, nanoseconds.")
	if !s.obsv.CompareAndSwap(nil, o) {
		return // lost the race; the winner's wiring stands
	}

	for i := range s.shards {
		s.shards[i].EnableObservability(o.shards[i], o.trace, i, sampleEvery)
	}

	appendNS := o.router.Histogram("crackdb_wal_append_ns",
		"WAL Append latency (enqueue to fsync-acknowledged), nanoseconds.")
	fsyncNS := o.router.Histogram("crackdb_wal_fsync_ns",
		"WAL group-commit write+fsync latency, nanoseconds.")
	batchRecs := o.router.Histogram("crackdb_wal_batch_records",
		"Records per WAL group-commit batch.")
	if w := s.WAL(); w != nil {
		w.SetObserver(&durable.Observer{
			AppendNS:     appendNS.Observe,
			FsyncNS:      fsyncNS.Observe,
			BatchRecords: func(n int64) { batchRecs.Observe(n) },
		})
	}

	o.router.RegisterCollector(func(e *obs.Exporter) {
		if w := s.WAL(); w != nil {
			st := w.Status()
			e.Gauge("crackdb_wal_records", "Records in the attached WAL since the last rotation.", float64(st.Records))
			e.Gauge("crackdb_wal_bytes", "Bytes in the attached WAL since the last rotation.", float64(st.Bytes))
		}
	})
	restarts := s.boots - 1
	if restarts < 0 {
		restarts = 0 // volatile store: never booted from disk
	}
	o.router.TrackProcess(time.Now(), restarts)
}

// Registry returns the router registry — the hook for instruments that
// live above the shards, like the server's request counters — or nil
// when observability is off.
func (s *Store) Registry() *obs.Registry {
	if o := s.obsv.Load(); o != nil {
		return o.router
	}
	return nil
}

// TraceBuf returns the crack-event trace ring shared by every shard, or
// nil when observability is off.
func (s *Store) TraceBuf() *obs.TraceBuf {
	if o := s.obsv.Load(); o != nil {
		return o.trace
	}
	return nil
}

// Gather snapshots every registry and merges the families: router
// instruments unlabeled, per-shard instruments stamped with a shard
// label. The second return is false when observability is off.
func (s *Store) Gather() ([]obs.Family, bool) {
	o := s.obsv.Load()
	if o == nil {
		return nil, false
	}
	groups := make([][]obs.Family, 0, len(o.shards)+1)
	groups = append(groups, o.router.Gather())
	for i, r := range o.shards {
		groups = append(groups, obs.WithLabel(r.Gather(), obs.L("shard", strconv.Itoa(i))))
	}
	return obs.MergeFamilies(groups...), true
}

// noteRoutedQueries counts one fanned-out conjunction per target shard.
func (s *Store) noteRoutedQueries(first, last int) {
	o := s.obsv.Load()
	if o == nil {
		return
	}
	for t := first; t <= last; t++ {
		o.routedQueries[t].Inc()
	}
}

// noteRoutedBatch counts each predicate of a batch against every shard
// its sub-batch was routed to.
func (s *Store) noteRoutedBatch(sub []subBatch) {
	o := s.obsv.Load()
	if o == nil {
		return
	}
	for i := range sub {
		if n := len(sub[i].ranges); n > 0 {
			o.routedQueries[i].Add(int64(n))
		}
	}
}

// noteRoutedInserts counts rows appended to one shard.
func (s *Store) noteRoutedInserts(shard int, rows int) {
	if o := s.obsv.Load(); o != nil {
		o.routedInserts[shard].Add(int64(rows))
	}
}
