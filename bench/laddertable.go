package main

import (
	"bytes"
	"fmt"

	"crackdb/internal/obs"
	"crackdb/internal/shard"
)

// ladderDepths is the entry order, outermost first; layerOf names the
// layer whose self time is a depth's time minus the next depth's.
var (
	ladderDepths = []string{"wire", "sql", "shard", "crackdb", "core"}
	layerOf      = []string{"server", "sql", "shard", "crackdb", "core"}
)

// ladderTable is "where the time goes" for one kind of statement of one
// workload: a row per layer.
type ladderTable struct {
	Kind  string      `json:"statements"`
	N     int         `json:"n"`
	Per   string      `json:"us_per"` // what one row's microseconds are per
	Rows  []ladderRow `json:"layers"`
	Total float64     `json:"total_ms"` // the outermost depth's time summed over the stream
}

type ladderRow struct {
	Layer    string  `json:"layer"`
	EntryP50 float64 `json:"entry_p50_us"` // latency entering at this depth
	SelfP50  float64 `json:"self_p50_us"`  // what this layer adds
	SelfMS   float64 `json:"self_total_ms"`
}

var kindNames = map[stmtKind]string{kindCount: "count", kindRows: "rows", kindInsert: "insert", kindWindow: "pipelined count"}

// ladderMetricNames are the per-layer metrics only the ladder measures;
// a workload without the statement kind behind one reports 0.
var ladderMetricNames = map[string]string{
	"server.self_us": "us", "server.rows_self_us": "us",
	"sql.self_us": "us", "sql.rows_self_us": "us",
	"shard.self_us": "us", "shard.skew": "ratio", "shard.merge_us": "us", "shard.insert_route_us": "us",
	"crackdb.countwhere_us": "us", "crackdb.count_us": "us", "crackdb.planner_overhead_ratio": "ratio",
	"crackdb.countbatch_us_per_range": "us", "crackdb.rows_us": "us", "crackdb.insert_us": "us",
	"crackdb.read_after_insert_us": "us",
	"core.count_us":                "us",
	"trace.inproc_vs_child_ratio":  "ratio",
}

// derive turns the depth runs into the layer tables and metrics.
func (res *ladderResult) derive(units []unit, runs map[string]*depthRun, walAppendUS float64, childUS []float64) {
	m := res.metrics
	for name, unit := range ladderMetricNames {
		m[name] = metric{0, unit, 0}
	}
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			m[name] = metric{median(xs), ladderMetricNames[name], len(xs)}
		}
	}
	for _, kind := range []stmtKind{kindCount, kindRows, kindInsert, kindWindow} {
		var idx []int
		per := 1.0
		for i := range units {
			if units[i].kind == kind {
				idx = append(idx, i)
				if kind == kindWindow {
					per = float64(len(units[i].win))
				}
			}
		}
		if len(idx) == 0 {
			continue
		}
		pick := func(xs []float64) []float64 {
			out := make([]float64, len(idx))
			for k, i := range idx {
				out[k] = xs[i] / per
			}
			return out
		}
		entry := make([][]float64, len(ladderDepths))
		for d, twin := range ladderDepths {
			entry[d] = pick(runs[twin].crit)
		}
		self := make([][]float64, len(ladderDepths))
		for d := range ladderDepths {
			self[d] = append([]float64(nil), entry[d]...)
			if d+1 < len(ladderDepths) {
				for k := range self[d] {
					self[d][k] -= entry[d+1][k]
				}
			}
		}
		tab := ladderTable{Kind: kindNames[kind], N: len(idx), Per: "statement", Total: sum(entry[0]) / 1e3}
		if kind == kindWindow {
			tab.Per = "range"
		}
		if len(childUS) > 0 {
			// One rung above the ladder: the same stream against the child
			// process. What it costs beyond the in-process wire depth is
			// the hop between two processes (loopback between address
			// spaces, waking the other side's threads).
			child := pick(childUS)
			hop := append([]float64(nil), child...)
			for k := range hop {
				hop[k] -= entry[0][k]
			}
			tab.Total = sum(child) / 1e3
			tab.Rows = append(tab.Rows, ladderRow{"hop", median(child), median(hop), sum(hop) / 1e3})
		}
		for d := range ladderDepths {
			tab.Rows = append(tab.Rows, ladderRow{layerOf[d], median(entry[d]), median(self[d]), sum(self[d]) / 1e3})
		}
		res.tables = append(res.tables, tab)

		crack := runs["crackdb"]
		switch kind {
		case kindCount, kindWindow:
			set("server.self_us", self[0])
			set("sql.self_us", self[1])
			set("shard.self_us", self[2])
			skew := make([]float64, len(idx))
			for k, i := range idx {
				skew[k] = ratio(crack.crit[i], crack.mean[i])
			}
			set("shard.skew", skew)
			set("core.count_us", entry[4])
			if kind == kindWindow {
				set("crackdb.countbatch_us_per_range", entry[3])
				break
			}
			set("crackdb.countwhere_us", entry[3])
			if prim, ok := runs["crackdb.count"]; ok {
				set("crackdb.count_us", pick(prim.crit))
				m["crackdb.planner_overhead_ratio"] = metric{ratio(m["crackdb.countwhere_us"].Value, m["crackdb.count_us"].Value), "ratio", len(idx)}
			}
			var after []float64
			for k, i := range idx {
				if units[i].afterInsert {
					after = append(after, entry[3][k])
				}
			}
			set("crackdb.read_after_insert_us", after)
		case kindRows:
			set("server.rows_self_us", self[0])
			set("sql.rows_self_us", self[1])
			set("crackdb.rows_us", pick(crack.rowsPart))
			merge := pick(runs["shard"].rowsPart)
			for k, i := range idx {
				merge[k] -= crack.rowsPart[i]
			}
			set("shard.merge_us", merge)
		case kindInsert:
			set("crackdb.insert_us", entry[3])
			// The shard depth's insert is log, route, apply; the WAL's own
			// append histogram on that twin takes the log part back out.
			m["shard.insert_route_us"] = metric{median(self[2]) - walAppendUS, "us", len(idx)}
		}
	}
	if len(childUS) > 0 {
		m["trace.inproc_vs_child_ratio"] = metric{ratio(median(runs["wire"].crit), median(childUS)), "ratio", len(childUS)}
	}
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// walAppendMeanUS reads a durable twin's own crackdb_wal_append_ns
// histogram: the mean time its inserts spent in WAL.Append.
func walAppendMeanUS(store *shard.Store) float64 {
	fams, ok := store.Gather()
	if !ok {
		return 0
	}
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, fams); err != nil {
		return 0
	}
	snap, err := parsePromText(buf.String())
	if err != nil {
		return 0
	}
	return ratio(snap["crackdb_wal_append_ns_sum"], snap["crackdb_wal_append_ns_count"]) / 1e3
}

// print writes the per-layer tables: the "where the time goes" view.
func (l *ladderResult) print(workload string) {
	for _, t := range l.tables {
		fmt.Printf("\n%s: where the time goes, %s statements (n=%d, single client; hop = child process, the rest in-process twins; µs per %s)\n",
			workload, t.Kind, t.N, t.Per)
		fmt.Printf("  %-8s %12s %12s %14s %7s\n", "layer", "entry p50", "self p50", "self total ms", "share")
		for _, r := range t.Rows {
			fmt.Printf("  %-8s %12.1f %12.1f %14.2f %6.1f%%\n", r.Layer, r.EntryP50, r.SelfP50, r.SelfMS, 100*ratio(r.SelfMS, t.Total))
		}
	}
	fmt.Println()
}
