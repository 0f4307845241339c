// Datamining drill-down: the paper motivates cracking with "lengthy query
// sequences zooming into a portion of statistical interest" (§4, citing
// the Drill Down Benchmark). This example replays a homerun session — an
// analyst zooming from the whole table to a 2% target in 24 refinements —
// and compares the adaptive store against the scan-everything baseline.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"crackdb"
	"crackdb/internal/mqs"
)

func main() {
	const (
		n     = 1_000_000
		steps = 24
		sigma = 0.02
	)

	// A DBtapestry-shaped column: a permutation of 1..N, so range width ==
	// answer size. The example keeps its own copy for the scan baseline.
	column := make([]int64, n)
	rows := make([][]int64, n)
	for i, v := range rand.New(rand.NewSource(2005)).Perm(n) {
		column[i] = int64(v + 1)
		rows[i] = column[i : i+1]
	}
	store := crackdb.New()
	if err := store.CreateTable("sales", "c0"); err != nil {
		log.Fatal(err)
	}
	if err := store.InsertRows("sales", rows); err != nil {
		log.Fatal(err)
	}

	// An exponential homerun: the analyst trims the candidate set fast,
	// then fine-tunes the final target.
	m := mqs.MQS{Alpha: 1, N: n, K: steps, Sigma: sigma, Rho: mqs.Exponential}
	session, err := mqs.Homerun(m, "c0", 99)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("drill-down session: %d steps toward a %.0f%% target on %d rows\n\n",
		steps, sigma*100, n)
	fmt.Printf("%-5s %-22s %-12s %-14s %s\n", "step", "range", "answer", "crack (µs)", "pieces")

	// While refining, the analyst only needs counts; only the final
	// target is materialized. (Each count still cracks — the query is
	// also advice.)
	var crackTotal time.Duration
	for i, q := range session {
		start := time.Now()
		count, err := store.Count("sales", "c0", q.Low, q.High)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		crackTotal += elapsed
		st, _ := store.Stats("sales", "c0")
		fmt.Printf("%-5d [%9d,%9d]  %-12d %-14d %d\n",
			i+1, q.Low, q.High, count, elapsed.Microseconds(), st.Pieces)
	}

	// Materialize the final target set for the report.
	final := session[len(session)-1]
	res, err := store.Select("sales", "c0", final.Low, final.High)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Materialize("target_set"); err != nil {
		log.Fatal(err)
	}

	// The same session against the scan-everything baseline on identical
	// data.
	scanStart := time.Now()
	for _, q := range session {
		count := 0
		for _, v := range column {
			if v >= q.Low && v <= q.High {
				count++
			}
		}
		if count != int(q.High-q.Low+1) {
			log.Fatalf("scan of [%d,%d] counted %d", q.Low, q.High, count)
		}
	}
	scanTotal := time.Since(scanStart)

	st, _ := store.Stats("sales", "c0")
	fmt.Printf("\ncracking total:  %v (%d partition passes, %d tuples moved)\n",
		crackTotal, st.Cracks, st.TuplesMoved)
	fmt.Printf("scanning total:  %v (%d full scans of %d tuples)\n",
		scanTotal, steps, n)
	fmt.Printf("speedup:         %.1fx\n", float64(scanTotal)/float64(crackTotal))
}
