package main

// The metric names BENCHMARK.json lists, in the order it lists them. A
// driver-mode run reports exactly one of the two sets.
var endToEndNames = []string{"setup_s", "throughput_qps", "count_p50_ms"}

var perLayerNames = []string{
	// Client-observed, but specific to one workload (0 elsewhere).
	"count_p99_ms", "rows_p50_ms", "rows_p99_ms", "insert_p50_ms", "insert_p99_ms",
	"converge_random_s", "converge_seq_s", "ckpt_s", "recovery_s",
	"disk_bytes_per_user_byte", "failed_frac", "lost_acked_rows",

	"server.ping_rtt_us", "server.self_us", "server.rows_self_us", "server.window_depth_mean",
	"sql.parse_us", "sql.classify_us", "sql.self_us", "sql.rows_self_us",
	"shard.self_us", "shard.skew", "shard.merge_us", "shard.shards_visited_per_stmt", "shard.insert_route_us",
	"crackdb.countwhere_us", "crackdb.count_us", "crackdb.planner_overhead_ratio",
	"crackdb.countbatch_us_per_range", "crackdb.rows_us", "crackdb.insert_us", "crackdb.read_after_insert_us",
	"core.count_us", "core.first_stmt_ms", "core.cracks_per_stmt", "core.tuples_touched_per_stmt",
	"core.tuples_moved_per_stmt", "core.index_lookups_per_stmt", "core.pieces_final", "core.sortrows_us",
	"tuner.flips", "strategy.aux_cracks_per_stmt", "strategy.seq_vs_random_ratio",
	"sideways.hit_frac", "sideways.builds", "sideways.declines", "sideways.evictions",
	"durable.append_us", "durable.fsync_us", "durable.records_per_fsync", "durable.wal_bytes_per_user_byte",
	"durable.ckpt_bytes_full", "durable.ckpt_bytes_delta", "durable.ckpt_ms", "durable.read_stall_ms",
	"durable.boot_ms", "durable.replayed_records",
	"proc.cpu_ms_per_stmt", "proc.peak_rss_mb",
	"trace.inproc_vs_child_ratio",
}
