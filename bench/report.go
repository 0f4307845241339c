package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricSet is name → metric for one run of one workload.
type metricSet map[string]metric

// add copies other's metrics into m.
func (m metricSet) add(other metricSet) {
	for name, v := range other {
		m[name] = v
	}
}

// latency adds name_p50_ms and name_p99_ms from millisecond samples. A
// percentile the sample cannot support is left as it was — absent, or
// the 0 with no samples that prints as n/a — never interpolated.
func (m metricSet) latency(name string, ms []float64) {
	s := sortedCopy(ms)
	if v, ok := percentile(s, 0.5); ok {
		m[name+"_p50_ms"] = metric{v, "ms", len(s)}
	}
	if v, ok := percentile(s, 0.99); ok {
		m[name+"_p99_ms"] = metric{v, "ms", len(s)}
	}
}

// endToEnd is what a user of the server sees, measured with the trace
// off. Every workload reports every one of these (the driver's contract
// gates each metric on each workload), so the set is the part of the
// issue's table that exists on all four; the workload-specific numbers
// (rows, insert, converge, checkpoint, recovery, disk) are reported by
// workloadSpecific with the traced run.
func (o *outcome) endToEnd() metricSet {
	return metricSet{
		"setup_s":        {median(o.setupS), "s", len(o.setupS)},
		"throughput_qps": {median(o.instQPS), "1/s", o.stmts},
		"count_p50_ms":   {median(o.instCountP50), "ms", len(o.countMS)},
	}
}

// workloadSpecific is the rest of the issue's end-to-end table: metrics
// that exist on one workload only. They are client-observed, but the
// contract has no place for an end-to-end metric a workload does not
// produce, so BENCHMARK.json lists them per layer and they report 0
// where they do not apply.
func (o *outcome) workloadSpecific() metricSet {
	m := metricSet{
		"count_p99_ms": {0, "ms", 0},
		"rows_p50_ms":  {0, "ms", 0}, "rows_p99_ms": {0, "ms", 0},
		"insert_p50_ms": {0, "ms", 0}, "insert_p99_ms": {0, "ms", 0},
		"converge_random_s": {0, "s", 0}, "converge_seq_s": {0, "s", 0},
		"ckpt_s": {0, "s", 0}, "recovery_s": {0, "s", 0},
		"disk_bytes_per_user_byte": {0, "ratio", 0},
		"failed_frac":              {ratio(float64(o.failed), float64(o.attempted)), "ratio", o.attempted},
		"lost_acked_rows":          {float64(o.lostAcked), "count", 0},
	}
	m.latency("rows", o.rowsMS)
	m.latency("insert", o.insertMS)
	if v, ok := percentile(sortedCopy(o.countMS), 0.99); ok {
		m["count_p99_ms"] = metric{v, "ms", len(o.countMS)}
	}
	if len(o.epochS[0]) > 0 {
		m["converge_random_s"] = metric{median(o.epochS[0]), "s", len(o.epochS[0])}
		m["converge_seq_s"] = metric{median(o.epochS[1]), "s", len(o.epochS[1])}
	}
	if o.sp.durable {
		if len(o.ckptS) > 0 {
			m["ckpt_s"] = metric{median(o.ckptS), "s", len(o.ckptS)}
		}
		m["recovery_s"] = metric{median(o.recoveryS), "s", len(o.recoveryS)}
		m["disk_bytes_per_user_byte"] = metric{ratio(float64(o.diskBytes), float64(o.userBytes)), "ratio", 0}
	}
	return m
}

// fromCounters is the per-layer metrics read off the child from
// outside: /metrics deltas around the measured phase and /proc.
func (o *outcome) fromCounters() metricSet {
	stmts := float64(o.stmts)
	p := o.prom
	per := func(name string) metric { return metric{ratio(p[name], stmts), "count", o.stmts} }
	hits, misses := p["crackdb_sideways_hits_total"], p["crackdb_sideways_misses_total"]
	m := metricSet{
		"server.ping_rtt_us":       {median(o.pingUS), "us", len(o.pingUS)},
		"server.window_depth_mean": {ratio(p["crackdb_server_window_depth_sum"], p["crackdb_server_window_depth_count"]), "count", int(p["crackdb_server_window_depth_count"])},

		"shard.shards_visited_per_stmt": per("crackdb_shard_routed_queries_total"),

		"core.cracks_per_stmt":         per("crackdb_cracks_total"),
		"core.tuples_touched_per_stmt": per("crackdb_tuples_touched_total"),
		"core.tuples_moved_per_stmt":   per("crackdb_tuples_moved_total"),
		"core.index_lookups_per_stmt":  per("crackdb_index_lookups_total"),
		"core.pieces_final":            {o.promEnd["crackdb_pieces"], "count", 0},
		"core.first_stmt_ms":           {0, "ms", 0},

		"tuner.flips":                  {p["crackdb_strategy_flips_total"], "count", 0},
		"strategy.aux_cracks_per_stmt": per("crackdb_aux_cracks_total"),
		"strategy.seq_vs_random_ratio": {0, "ratio", 0},

		"sideways.hit_frac":  {ratio(hits, hits+misses), "ratio", int(hits + misses)},
		"sideways.builds":    {p["crackdb_sideways_builds_total"], "count", 0},
		"sideways.declines":  {p["crackdb_sideways_declines_total"], "count", 0},
		"sideways.evictions": {p["crackdb_sideways_evictions_total"], "count", 0},

		"durable.fsync_us":                {ratio(p["crackdb_wal_fsync_ns_sum"], p["crackdb_wal_fsync_ns_count"]) / 1e3, "us", int(p["crackdb_wal_fsync_ns_count"])},
		"durable.records_per_fsync":       {ratio(p["crackdb_wal_batch_records_sum"], p["crackdb_wal_batch_records_count"]), "count", int(p["crackdb_wal_batch_records_count"])},
		"durable.ckpt_ms":                 {ratio(p["crackdb_checkpoint_ns_sum"], p["crackdb_checkpoint_ns_count"]) / 1e6, "ms", int(p["crackdb_checkpoint_ns_count"])},
		"durable.read_stall_ms":           {0, "ms", 0},
		"durable.wal_bytes_per_user_byte": {0, "ratio", 0},
		"durable.ckpt_bytes_full":         {0, "bytes", 0},
		"durable.ckpt_bytes_delta":        {0, "bytes", 0},

		"proc.cpu_ms_per_stmt": {ratio(o.cpuMS, stmts), "ms", o.stmts},
		"proc.peak_rss_mb":     {o.peakRSSMB, "MB", 0},
	}
	if len(o.firstStmtMS) > 0 {
		m["core.first_stmt_ms"] = metric{median(o.firstStmtMS), "ms", len(o.firstStmtMS)}
		m["strategy.seq_vs_random_ratio"] = metric{ratio(median(o.epochS[1]), median(o.epochS[0])), "ratio", 0}
	}
	if o.sp.durable {
		m["durable.read_stall_ms"] = metric{o.readStallMS(), "ms", len(o.saves)}
		inserted := float64(8 * int64(o.sp.alpha) * o.ackedRows)
		m["durable.wal_bytes_per_user_byte"] = metric{ratio(float64(o.disk.wal), inserted), "ratio", 0}
		m["durable.ckpt_bytes_full"] = metric{float64(o.disk.full), "bytes", 0}
		m["durable.ckpt_bytes_delta"] = metric{ratio(float64(o.disk.delta), float64(o.disk.deltas)), "bytes", o.disk.deltas}
	}
	return m
}

// readStallMS is the foreground stall background work causes: the worst
// count latency among counts in flight during a /save, minus the count
// median.
func (o *outcome) readStallMS() float64 {
	var worst float64
	for i, at := range o.countAt {
		end := at + o.countMS[i]/1e3
		for _, sv := range o.saves {
			if at < sv[1] && end > sv[0] && o.countMS[i] > worst {
				worst = o.countMS[i]
			}
		}
	}
	if worst == 0 {
		return 0
	}
	return worst - median(o.countMS)
}

// printMetrics writes one "workload name unit value n=samples" line per
// metric, sorted by name.
func printMetrics(workload string, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		if v.N == 0 && strings.HasSuffix(name, "_p99_ms") {
			fmt.Printf("%-17s %-32s %-6s %14s  (fewer than %d samples beyond it)\n", workload, name, v.Unit, "n/a", tailSamples)
			continue
		}
		fmt.Printf("%-17s %-32s %-6s %14.6g  n=%d\n", workload, name, v.Unit, v.Value, v.N)
	}
}
