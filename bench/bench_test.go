package main

import (
	"math"
	"reflect"
	"testing"

	"crackdb/internal/server"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with exactly 10 samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile(xs[:1], 0.5); !ok || v != 1 {
		t.Fatalf("median of one sample = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("median of nothing reported")
	}
	m := metricSet{}
	m.latency("count", xs[:999])
	if _, has := m["count_p99_ms"]; has {
		t.Fatal("latency() reported a p99 the sample cannot support")
	}
	if m["count_p50_ms"].Value != 500 {
		t.Fatalf("p50 = %v, want 500 (nearest rank, no interpolation)", m["count_p50_ms"].Value)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Fatal("a single value has no spread")
	}
}

func TestSeededGeneratorsAreDeterministic(t *testing.T) {
	a, b, c := newInputs(smokeSizes, 7), newInputs(smokeSizes, 7), newInputs(smokeSizes, 8)
	if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.fetch, b.fetch) {
		t.Fatal("same seed, different pools")
	}
	if reflect.DeepEqual(a.pool, c.pool) {
		t.Fatal("different seeds, same pool")
	}
	seen := map[int64]bool{}
	for _, st := range a.pool {
		if seen[st.lo] {
			t.Fatalf("pool range at %d drawn twice", st.lo)
		}
		seen[st.lo] = true
		if st.lo < 1 || st.hi > int64(smokeSizes.rows)+1 {
			t.Fatalf("pool range [%d,%d) leaves the domain", st.lo, st.hi)
		}
	}
	for _, sp := range specs {
		ua, err := a.ladderUnits(sp, 2)
		if err != nil {
			t.Fatal(err)
		}
		ub, _ := b.ladderUnits(sp, 2)
		if !reflect.DeepEqual(ua, ub) {
			t.Fatalf("%s: same seed, different ladder streams", sp.name)
		}
	}
	ra, rb := a.clientRNG(1), b.clientRNG(1)
	for i := 0; i < 100; i++ {
		if a.scalarNext(ra).text != b.scalarNext(rb).text {
			t.Fatal("same seed, different client streams")
		}
	}
	ea, _ := a.epochStream(1)
	eb, _ := b.epochStream(1)
	if !reflect.DeepEqual(ea, eb) {
		t.Fatal("same seed, different epoch streams")
	}
}

func TestParseProm(t *testing.T) {
	snap, err := parsePromText(`# HELP crackdb_cracks_total Crack partition passes per column.
# TYPE crackdb_cracks_total counter
crackdb_cracks_total{table="bench",column="c0",shard="0"} 3
crackdb_cracks_total{table="bench",column="c0",shard="1"} 4
crackdb_wal_fsync_ns_bucket{le="1023"} 9
crackdb_wal_fsync_ns_bucket{le="+Inf"} 12
crackdb_wal_fsync_ns_sum 6000
crackdb_wal_fsync_ns_count 12
crackdb_pieces{table="bench",column="c0",shard="0"} 1.5e+01
`)
	if err != nil {
		t.Fatal(err)
	}
	want := promSnap{"crackdb_cracks_total": 7, "crackdb_wal_fsync_ns_sum": 6000, "crackdb_wal_fsync_ns_count": 12, "crackdb_pieces": 15}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("got %v, want %v", snap, want)
	}
	d := snap.delta(promSnap{"crackdb_cracks_total": 5})
	if d["crackdb_cracks_total"] != 2 || d["crackdb_pieces"] != 15 {
		t.Fatalf("delta = %v", d)
	}
	if _, err := parsePromText("crackdb_x notanumber\n"); err == nil {
		t.Fatal("unparsable value accepted")
	}
}

func TestLadderSubtraction(t *testing.T) {
	st := countStmt("c0", 1, 11)
	units := []unit{{kind: kindCount, st: &st}, {kind: kindCount, st: &st}, {kind: kindCount, st: &st}}
	flat := func(v float64) *depthRun {
		return &depthRun{crit: []float64{v, v, v}, mean: []float64{v / 2, v / 2, v / 2}, rowsPart: make([]float64, 3), answers: make([]int64, 3)}
	}
	runs := map[string]*depthRun{
		"wire": flat(100), "sql": flat(90), "shard": flat(70), "crackdb": flat(30), "core": flat(4),
		"crackdb.count": flat(6),
	}
	res := &ladderResult{metrics: metricSet{}}
	res.derive(units, runs, 0, []float64{125, 125, 125})
	want := map[string]float64{
		"server.self_us": 10, "sql.self_us": 20, "shard.self_us": 40,
		"crackdb.countwhere_us": 30, "core.count_us": 4, "crackdb.count_us": 6,
		"crackdb.planner_overhead_ratio": 5, "shard.skew": 2,
		"trace.inproc_vs_child_ratio": 0.8,
	}
	for name, v := range want {
		if got := res.metrics[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if len(res.tables) != 1 || len(res.tables[0].Rows) != 6 {
		t.Fatalf("want one table of hop + five layers, got %+v", res.tables)
	}
	var total float64
	for _, r := range res.tables[0].Rows {
		total += r.SelfMS
	}
	if math.Abs(total-res.tables[0].Total) > 1e-9 {
		t.Errorf("self times sum to %v ms, the child total is %v ms", total, res.tables[0].Total)
	}
	for name := range ladderMetricNames {
		if _, ok := res.metrics[name]; !ok {
			t.Errorf("%s not reported", name)
		}
	}
}

func TestOracle(t *testing.T) {
	const n = 1000
	count := func(v string) *server.Response {
		return &server.Response{Columns: []string{"count(*)"}, Rows: [][]string{{v}}}
	}
	st := poolCountStmt(10, 20)
	if err := st.check(count("10"), n); err != nil {
		t.Fatal(err)
	}
	if err := st.check(count("11"), n); err == nil {
		t.Fatal("wrong count accepted")
	}
	edge := countStmt("c3", 995, 1005) // sticks out of the domain: only 995..1000 exist
	if err := edge.check(count("6"), n); err != nil {
		t.Fatal(err)
	}
	fetch := rowsStmt(10, 13)
	good := &server.Response{Columns: []string{"c0", "c1", "c2"}, Rows: [][]string{{"10", "5", "6"}, {"11", "1", "2"}, {"12", "9", "9"}}}
	if err := fetch.check(good, n); err != nil {
		t.Fatal(err)
	}
	swapped := &server.Response{Columns: good.Columns, Rows: [][]string{good.Rows[1], good.Rows[0], good.Rows[2]}}
	if err := fetch.check(swapped, n); err == nil {
		t.Fatal("rows out of canonical order accepted")
	}
	wrongKey := &server.Response{Columns: good.Columns, Rows: [][]string{{"10", "5", "6"}, {"11", "1", "2"}, {"13", "9", "9"}}}
	if err := fetch.check(wrongKey, n); err == nil {
		t.Fatal("wrong key sum accepted")
	}
	if err := fetch.check(&server.Response{Columns: good.Columns, Rows: good.Rows[:2]}, n); err == nil {
		t.Fatal("missing row accepted")
	}
	if err := st.check(&server.Response{Err: "boom"}, n); err == nil {
		t.Fatal("server error accepted")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	if v, _ := verdict(steady, shift(steady, 1.05), "lower", 0.10); v != "within" {
		t.Errorf("5%% slower under a 10%% bound: %s", v)
	}
	if v, _ := verdict(steady, shift(steady, 1.2), "lower", 0.10); v != "regressed" {
		t.Errorf("20%% slower under a 10%% bound: %s", v)
	}
	if v, _ := verdict(steady, shift(steady, 0.8), "higher", 0.10); v != "regressed" {
		t.Errorf("20%% less throughput under a 10%% bound: %s", v)
	}
	if v, _ := verdict(steady, shift(steady, 0.8), "lower", 0.10); v != "within" {
		t.Errorf("an improvement is not a regression: %s", v)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if v, _ := verdict(noisy, shift(noisy, 1.2), "lower", 0.10); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
}

// The smoke tests run the real thing small: a cracksrv child per
// workload, all four workloads, kill and recovery included.

func TestSmoke(t *testing.T) {
	ok, err := execute(config{seed: 42, seconds: 1, runs: 1, sz: smokeSizes})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a smoke workload answered wrongly")
	}
}

func TestSmokeTrace(t *testing.T) {
	ok, err := execute(config{seed: 43, seconds: 1, runs: 1, trace: true, sz: smokeSizes})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a traced smoke workload answered wrongly, or its twins disagreed")
	}
}

func TestWrongAnswerFailsTheCommand(t *testing.T) {
	ok, err := execute(config{workload: "steady_scalar", seed: 42, seconds: 1, runs: 1, sz: smokeSizes, corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("the oracle was given a wrong expected count and the command still reported success")
	}
}

// BENCHMARK.json is written by hand; it must name exactly what the
// harness runs and reports.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	var e2e, layer []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end lists %v, the harness reports %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(layer, perLayerNames) {
		t.Errorf("per_layer lists %v, the harness reports %v", layer, perLayerNames)
	}
}
