package crackdb_test

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"crackdb"
)

// The runnable godoc examples double as end-to-end tests of the public
// API: go test verifies their output.

func Example() {
	store := crackdb.New()
	if err := store.CreateTable("orders", "id", "amount"); err != nil {
		log.Fatal(err)
	}
	rows := [][]int64{{1, 120}, {2, 80}, {3, 250}, {4, 40}, {5, 180}}
	if err := store.InsertRows("orders", rows); err != nil {
		log.Fatal(err)
	}

	// The query cracks the amount column as a side effect.
	res, err := store.Select("orders", "amount", 100, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:", res.Count())

	st, err := store.Stats("orders", "amount")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pieces after one query:", st.Pieces)
	// Output:
	// matches: 2
	// pieces after one query: 3
}

func ExampleStore_SelectWhere() {
	store := crackdb.New()
	store.CreateTable("events", "sensor", "value")
	store.InsertRows("events", [][]int64{
		{1, 50}, {2, 150}, {1, 250}, {2, 350}, {1, 450},
	})

	res, err := store.SelectWhere("events",
		crackdb.Cond{Col: "value", Op: ">=", Val: 100},
		crackdb.Cond{Col: "value", Op: "<", Val: 400},
		crackdb.Cond{Col: "sensor", Op: "=", Val: 2},
	)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := res.Rows("sensor", "value")
	if err != nil {
		log.Fatal(err)
	}
	// Result rows arrive in the store's physical (cracked) order; sort
	// for stable presentation.
	sort.Slice(rows, func(i, j int) bool { return rows[i][1] < rows[j][1] })
	for _, r := range rows {
		fmt.Printf("sensor=%d value=%d\n", r[0], r[1])
	}
	// Output:
	// sensor=2 value=150
	// sensor=2 value=350
}

func ExampleStore_GroupBy() {
	store := crackdb.New()
	store.CreateTable("readings", "sensor")
	store.InsertRows("readings", [][]int64{{3}, {1}, {3}, {2}, {3}, {1}})

	groups, err := store.GroupBy("readings", "sensor")
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range groups {
		fmt.Printf("sensor %d: %d readings\n", g.Value, g.Count)
	}
	// Output:
	// sensor 1: 2 readings
	// sensor 2: 1 readings
	// sensor 3: 3 readings
}

func ExampleStore_Lineage() {
	store := crackdb.New()
	store.CreateTable("t", "a")
	store.InsertRows("t", [][]int64{{13}, {4}, {9}, {2}, {12}, {7}, {1}, {19}})

	if _, err := store.Select("t", "a", 5, 9); err != nil {
		log.Fatal(err)
	}
	lin, err := store.Lineage("t", "a")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(lin)
	// Output:
	// t.a[1] [0,8)
	//   t.a[2] Ξ(t.a ∈ cut(5,9)) [0,3)
	//   t.a[3] Ξ(t.a ∈ cut(5,9)) [3,5)
	//   t.a[4] Ξ(t.a ∈ cut(5,9)) [5,8)
}

// Quickstart: create a table, run range queries, and watch the store
// reorganize itself — the minimal tour of the crackdb public API.
func Example_quickstart() {
	store := crackdb.New()

	// A small orders table: (id, customer, amount).
	if err := store.CreateTable("orders", "id", "customer", "amount"); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([][]int64, 100_000)
	for i := range rows {
		rows[i] = []int64{int64(i), rng.Int63n(5_000), rng.Int63n(10_000)}
	}
	if err := store.InsertRows("orders", rows); err != nil {
		log.Fatal(err)
	}

	// The first range query pays one partition pass over the amount
	// column — and leaves the column cracked at 2500 and 5000.
	res, err := store.Select("orders", "amount", 2500, 4999)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orders with amount in [2500, 5000): %d\n", res.Count())

	// Fetch other attributes of the qualifying tuples through their OIDs.
	sample, err := res.Rows("id", "customer", "amount")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first match: id=%d customer=%d amount=%d\n",
		sample[0][0], sample[0][1], sample[0][2])

	// Refining the range cracks only inside the previous answer piece;
	// repeating it is a pure index lookup.
	if _, err := store.Select("orders", "amount", 3000, 3999); err != nil {
		log.Fatal(err)
	}
	if _, err := store.Select("orders", "amount", 3000, 3999); err != nil {
		log.Fatal(err)
	}

	stats, err := store.Stats("orders", "amount")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 3 queries: %d partition passes, %d index lookups, %d pieces, %d tuples moved\n",
		stats.Cracks, stats.IndexLookups, stats.Pieces, stats.TuplesMoved)

	// The lineage DAG records how the column was broken into pieces.
	lineage, err := store.Lineage("orders", "amount")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncracker lineage of orders.amount:\n%s", lineage)

	// Materialize the current answer as a table of its own.
	if err := res.Materialize("mid_range_orders"); err != nil {
		log.Fatal(err)
	}
	n, _ := store.NumRows("mid_range_orders")
	fmt.Printf("\nmaterialized mid_range_orders with %d rows; tables: %v\n",
		n, store.Tables())
	// Output:
	// orders with amount in [2500, 5000): 24859
	// first match: id=25282 customer=2459 amount=3197
	// after 3 queries: 2 partition passes, 6 index lookups, 5 pieces, 89146 tuples moved
	//
	// cracker lineage of orders.amount:
	// orders.amount[1] [0,100000)
	//   orders.amount[2] Ξ(orders.amount ∈ cut(2500,4999)) [0,25282)
	//   orders.amount[3] Ξ(orders.amount ∈ cut(2500,4999)) [25282,50141)
	//     orders.amount[5] Ξ(orders.amount ∈ cut(3000,3999)) [25282,30283)
	//     orders.amount[6] Ξ(orders.amount ∈ cut(3000,3999)) [30283,40317)
	//     orders.amount[7] Ξ(orders.amount ∈ cut(3000,3999)) [40317,50141)
	//   orders.amount[4] Ξ(orders.amount ∈ cut(2500,4999)) [50141,100000)
	//
	// materialized mid_range_orders with 24859 rows; tables: [mid_range_orders orders]
}

// Joincrack: the ^ (join) and Ψ (projection) crackers on a two-table
// schema — the paper's full cracker family beyond range selections. A
// star-ish pair orders(order_id, customer_id, total) and
// customers(customer_id, region) is split by a semijoin, vertically
// partitioned, and losslessly reunited.
func Example_joincrack() {
	rng := rand.New(rand.NewSource(11))
	store := crackdb.New()

	// customers: 10k ids, but only even ids ever place orders — half of
	// every join input is dead weight a semijoin split isolates once.
	if err := store.CreateTable("customers", "customer_id", "region"); err != nil {
		log.Fatal(err)
	}
	var custRows [][]int64
	for id := int64(0); id < 10_000; id++ {
		custRows = append(custRows, []int64{id, id % 7})
	}
	if err := store.InsertRows("customers", custRows); err != nil {
		log.Fatal(err)
	}

	if err := store.CreateTable("orders", "order_id", "customer_id", "total"); err != nil {
		log.Fatal(err)
	}
	var orderRows [][]int64
	for i := int64(0); i < 50_000; i++ {
		orderRows = append(orderRows, []int64{i, rng.Int63n(5_000) * 2, rng.Int63n(1_000)})
	}
	// Some orders reference retired customers outside the table.
	for i := int64(0); i < 1_000; i++ {
		orderRows = append(orderRows, []int64{50_000 + i, 20_000 + i, rng.Int63n(1_000)})
	}
	if err := store.InsertRows("orders", orderRows); err != nil {
		log.Fatal(err)
	}

	// ^ cracking: one pass shuffles both join columns so that matching
	// tuples form consecutive areas — a semijoin index built as a side
	// effect (paper §3.3: "the ^ cracker effectively builds a
	// semijoin-index").
	info, err := store.SemijoinSplit("orders", "customer_id", "customers", "customer_id")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("^ crack of orders ⋈ customers on customer_id:")
	fmt.Printf("  P1 = orders ⋉ customers:   %6d tuples (join these)\n", info.RMatch)
	fmt.Printf("  P2 = orders without match: %6d tuples (outer-join remainder)\n", info.RRest)
	fmt.Printf("  P3 = customers ⋉ orders:   %6d tuples\n", info.SMatch)
	fmt.Printf("  P4 = customers w/o orders: %6d tuples\n", info.SRest)

	// Ψ cracking: the analytics team only reads (order_id, total); split
	// those off vertically, with surrogate oids binding the pieces.
	head, rest, err := store.VerticalPartition("orders", "order_id", "total")
	if err != nil {
		log.Fatal(err)
	}
	hc, _ := store.Columns(head)
	rc, _ := store.Columns(rest)
	fmt.Printf("\nΨ crack of orders: head %v, rest %v\n", hc, rc)

	// The narrow head piece answers the analytics query alone.
	res, err := store.Select(head, "total", 900, 999)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  top-decile totals (from the head piece only): %d orders\n", res.Count())

	// Loss-less: reunite the pieces through the surrogate 1:1 join and
	// verify cardinality.
	if err := store.Reunite("orders_reunited", head, rest, "order_id", "customer_id", "total"); err != nil {
		log.Fatal(err)
	}
	orig, _ := store.NumRows("orders")
	reun, _ := store.NumRows("orders_reunited")
	fmt.Printf("\nΨ reconstruction: %d rows reunited (original %d) — loss-less: %v\n",
		reun, orig, reun == orig)
	// Output:
	// ^ crack of orders ⋈ customers on customer_id:
	//   P1 = orders ⋉ customers:    50000 tuples (join these)
	//   P2 = orders without match:   1000 tuples (outer-join remainder)
	//   P3 = customers ⋉ orders:     5000 tuples
	//   P4 = customers w/o orders:   5000 tuples
	//
	// Ψ crack of orders: head [oid order_id total], rest [oid customer_id]
	//   top-decile totals (from the head piece only): 5165 orders
	//
	// Ψ reconstruction: 51000 rows reunited (original 51000) — loss-less: true
}

// Sensorlab: the paper's scientific-database scenario — "the tables keep
// track of timed physical events detected by many sensors in the field"
// (§4, citing multidimensional indexing for tertiary storage). The
// workload mixes strolling exploration over readings, zooming on a time
// window, grouping by sensor, and a stream of fresh observations arriving
// between queries. No index is ever declared; the access structure
// emerges from the queries.
func Example_sensorlab() {
	const (
		sensors  = 64
		readings = 500_000
	)
	rng := rand.New(rand.NewSource(1969))

	store := crackdb.New()

	if err := store.CreateTable("events", "ts", "sensor", "value"); err != nil {
		log.Fatal(err)
	}
	rows := make([][]int64, readings)
	for i := range rows {
		rows[i] = []int64{
			int64(i),              // timestamp
			rng.Int63n(sensors),   // sensor id
			rng.Int63n(1_000_000), // measured value
		}
	}
	if err := store.InsertRows("events", rows); err != nil {
		log.Fatal(err)
	}

	// Phase 1 — strolling: scientists probe random value bands looking
	// for anomalies. Each probe cracks the value column a bit more.
	fmt.Println("phase 1: strolling through value bands")
	for probe := 0; probe < 12; probe++ {
		lo := rng.Int63n(900_000)
		res, err := store.Select("events", "value", lo, lo+50_000)
		if err != nil {
			log.Fatal(err)
		}
		st, _ := store.Stats("events", "value")
		fmt.Printf("  probe [%6d,%6d]k: %6d events  (pieces=%d, moved=%d)\n",
			lo/1000, (lo+50_000)/1000, res.Count(), st.Pieces, st.TuplesMoved)
	}

	// Phase 2 — a hot region found: zoom into the suspicious band and
	// inspect which sensors produced it.
	fmt.Println("\nphase 2: zooming into the anomaly band")
	res, err := store.Select("events", "value", 990_000, 999_999)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  anomaly band holds %d events\n", res.Count())
	hot, err := res.Rows("sensor")
	if err != nil {
		log.Fatal(err)
	}
	perSensor := map[int64]int{}
	for _, r := range hot {
		perSensor[r[0]]++
	}
	busiest, busiestN := int64(-1), 0
	for sid := int64(0); sid < sensors; sid++ { // in id order: a tie goes to the lowest
		if cnt := perSensor[sid]; cnt > busiestN {
			busiest, busiestN = sid, cnt
		}
	}
	fmt.Printf("  busiest sensor in band: #%d with %d events\n", busiest, busiestN)

	// Phase 3 — Ω cracking: cluster the whole table by sensor for the
	// per-sensor model-fitting runs that follow.
	fmt.Println("\nphase 3: Ω group-crack by sensor")
	groups, err := store.GroupBy("events", "sensor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  clustered into %d sensor groups (first: sensor %d × %d readings)\n",
		len(groups), groups[0].Value, groups[0].Count)

	// Phase 4 — the instruments keep streaming: new readings arrive and
	// immediately participate in queries (the cracked state rebuilds
	// adaptively).
	fmt.Println("\nphase 4: fresh observations arrive")
	fresh := make([][]int64, 10_000)
	for i := range fresh {
		fresh[i] = []int64{int64(readings + i), rng.Int63n(sensors), 995_000 + rng.Int63n(5_000)}
	}
	if err := store.InsertRows("events", fresh); err != nil {
		log.Fatal(err)
	}
	res2, err := store.Select("events", "value", 990_000, 999_999)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  anomaly band after ingest: %d events (+%d)\n",
		res2.Count(), res2.Count()-res.Count())

	// Archive the anomaly for the analysis pipeline.
	if err := res2.Materialize("anomaly_batch_1"); err != nil {
		log.Fatal(err)
	}
	n, _ := store.NumRows("anomaly_batch_1")
	fmt.Printf("\narchived %d anomalous events as table %q\n", n, "anomaly_batch_1")
	// Output:
	// phase 1: strolling through value bands
	//   probe [   770,   820]k:  24986 events  (pieces=3, moved=216094)
	//   probe [   130,   180]k:  24976 events  (pieces=5, moved=369774)
	//   probe [    75,   125]k:  24671 events  (pieces=7, moved=405640)
	//   probe [   408,   458]k:  25063 events  (pieces=9, moved=588384)
	//   probe [   372,   422]k:  25075 events  (pieces=11, moved=628716)
	//   probe [    17,    67]k:  24889 events  (pieces=13, moved=649384)
	//   probe [   828,   878]k:  24907 events  (pieces=15, moved=691930)
	//   probe [   345,   395]k:  25013 events  (pieces=17, moved=723438)
	//   probe [   581,   631]k:  25015 events  (pieces=19, moved=835016)
	//   probe [   799,   849]k:  24973 events  (pieces=21, moved=859472)
	//   probe [   769,   819]k:  24977 events  (pieces=23, moved=862086)
	//   probe [   303,   353]k:  24892 events  (pieces=25, moved=899002)
	//
	// phase 2: zooming into the anomaly band
	//   anomaly band holds 5024 events
	//   busiest sensor in band: #63 with 105 events
	//
	// phase 3: Ω group-crack by sensor
	//   clustered into 64 sensor groups (first: sensor 0 × 7703 readings)
	//
	// phase 4: fresh observations arrive
	//   anomaly band after ingest: 15024 events (+10000)
	//
	// archived 15024 anomalous events as table "anomaly_batch_1"
}
