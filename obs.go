package crackdb

import (
	"crackdb/internal/core"
	"crackdb/internal/obs"
)

// EnableObservability wires this store into a metrics registry and a
// crack-event trace ring. It installs one core.Instr shared by every
// column — latency histograms for the three query paths under
// crackdb_query_latency_ns{path=converged|crack|batch} — and registers
// a scrape-time collector that reports the per-column work counters,
// piece counts, base-fetch totals and sideways payload statistics by
// reading the existing Stats accessors at Gather time, so the record
// path pays nothing for them.
//
// shardID is stamped into trace events (0 for unsharded stores).
// sampleEvery thins the converged read path's latency timing to one
// lookup in that many (rounded up to a power of two; <= 1 times every
// lookup) — cracking and batch holds are always timed, they amortize.
// Calling it again with the same registry is a no-op beyond refreshing
// the Instr attachment; tables and columns created later inherit the
// instrumentation automatically.
func (s *Store) EnableObservability(reg *obs.Registry, trace *obs.TraceBuf, shardID, sampleEvery int) {
	var mask uint64
	if sampleEvery > 1 {
		p := uint64(1)
		for p < uint64(sampleEvery) {
			p <<= 1
		}
		mask = p - 1
	}
	in := &core.Instr{
		ReadHold:   reg.Histogram("crackdb_query_latency_ns", "Query latency by execution path, nanoseconds.", obs.L("path", "converged")),
		WriteHold:  reg.Histogram("crackdb_query_latency_ns", "Query latency by execution path, nanoseconds.", obs.L("path", "crack")),
		Batch:      reg.Histogram("crackdb_query_latency_ns", "Query latency by execution path, nanoseconds.", obs.L("path", "batch")),
		Trace:      trace,
		Shard:      shardID,
		SampleMask: mask,
	}

	s.mu.Lock()
	first := s.instr == nil
	s.instr = in
	s.publishOptionsLocked()
	s.mu.Unlock()
	for _, ct := range s.liveTables() {
		ct.SetInstr(in)
	}
	if !first {
		return // collector already registered against this registry
	}

	reg.RegisterCollector(func(e *obs.Exporter) { s.collect(e) })
}

// collect reports the store's point-in-time counters to an Exporter.
// It runs at scrape time and reads only non-creating accessors, so
// observation never materializes cracker state.
func (s *Store) collect(e *obs.Exporter) {
	for _, table := range s.Tables() {
		lt := obs.L("table", table)
		cols, err := s.CrackedColumnStats(table)
		if err != nil {
			continue // dropped between listing and stats
		}
		for attr, cs := range cols {
			lc := obs.L("column", attr)
			e.Counter("crackdb_queries_total", "Range queries answered per cracked column.", int64(cs.Queries), lt, lc)
			e.Counter("crackdb_cracks_total", "Crack partition passes per column.", int64(cs.Cracks), lt, lc)
			e.Counter("crackdb_aux_cracks_total", "Strategy-advised auxiliary cracks per column.", int64(cs.AuxCracks), lt, lc)
			e.Counter("crackdb_index_lookups_total", "Cut lookups answered from the cracker index.", int64(cs.IndexLookups), lt, lc)
			e.Counter("crackdb_tuples_touched_total", "Tuples of the pieces cracks covered, each crack's once; a sort counts N log N.", cs.TuplesTouched, lt, lc)
			e.Counter("crackdb_tuples_moved_total", "Element writes during crack partitioning and update folds; a sort counts N log N.", cs.TuplesMoved, lt, lc)
			const foldsHelp = "Pending-update folds per column, by what they did with the cracker index."
			e.Counter("crackdb_folds_total", foldsHelp, int64(cs.RippleFolds), lt, lc, obs.L("kind", "ripple"))
			e.Counter("crackdb_folds_total", foldsHelp, int64(cs.RebuildFolds), lt, lc, obs.L("kind", "rebuild"))
			e.Gauge("crackdb_pieces", "Pieces the column is currently cracked into.", float64(cs.Pieces), lt, lc)
			e.Gauge("crackdb_strategy_info", "Active crack strategy per column (value is always 1; the strategy label carries the decision).",
				1, lt, lc, obs.L("strategy", cs.Strategy))
		}
		if n, err := s.FetchedTuples(table); err == nil {
			e.Counter("crackdb_fetched_tuples_total", "Tuples reconstructed through the base table by OID fetches.", n, lt)
		}
	}
	sw := s.SidewaysStats()
	e.Counter("crackdb_sideways_hits_total", "Projections served from sideways payload vectors.", sw.Projections)
	e.Counter("crackdb_sideways_misses_total", "Projections that fell back to the base-table fetch.", sw.Fallbacks)
	e.Counter("crackdb_sideways_declines_total", "Fallbacks the budget allowed but that were refused (stale selection, unknown attribute).", sw.Declines)
	e.Counter("crackdb_sideways_evictions_total", "Payload vectors dropped by the LRU budget.", sw.Evictions)
	e.Counter("crackdb_sideways_builds_total", "Payload vectors gathered from the base table.", sw.Builds)
	e.Gauge("crackdb_sideways_live_maps", "Key columns carrying at least one sideways payload vector.", float64(sw.Sets))
	e.Gauge("crackdb_sideways_live_payloads", "Live sideways payload vectors.", float64(sw.Pays))
	for _, d := range s.TuneDecisions() {
		lt, lc := obs.L("table", d.Table), obs.L("column", d.Column)
		e.Counter("crackdb_strategy_flips_total", "Strategy changes the auto-tuner applied per column (auto + forced).", int64(d.Flips), lt, lc)
		e.Gauge("crackdb_tuner_class_info", "Workload class the tuner last assigned per column (value is always 1; the class label carries it).",
			1, lt, lc, obs.L("class", d.Class))
	}
}
