package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
	"crackdb/internal/relation"
)

func TestEstimateRangeBracketsTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	c := NewColumn("a", vals)

	// Virgin column: no statistics, estimate is [0, N].
	e := c.EstimateRange(rangeOf("a", 100, 200))
	if e.Min != 0 || e.Max != 2000 {
		t.Fatalf("virgin estimate = %+v", e)
	}

	// Crack a bit, then check brackets on many random ranges.
	for q := 0; q < 10; q++ {
		lo := rng.Int63n(900)
		c.Select(lo, lo+rng.Int63n(100), true, true)
	}
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(900)
		hi := lo + rng.Int63n(200)
		r := rangeOf("a", lo, hi)
		est := c.EstimateRange(r)
		truth := c.Count(lo, hi, true, true) // note: cracks further
		if truth < est.Min || truth > est.Max {
			t.Fatalf("range [%d,%d]: truth %d outside estimate [%d,%d]", lo, hi, truth, est.Min, est.Max)
		}
	}
}

func TestEstimateSharpensWithCracking(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	c := NewColumn("a", vals)
	r := rangeOf("a", 300, 500)

	before := c.EstimateRange(r)
	c.Select(300, 500, true, true)
	after := c.EstimateRange(r)
	// After cracking the exact range, the estimate is exact.
	if after.Min != after.Max {
		t.Fatalf("estimate not exact after cracking its range: %+v", after)
	}
	if after.Max-after.Min >= before.Max-before.Min {
		t.Fatal("estimate did not sharpen")
	}
	truth := c.Count(300, 500, true, true)
	if after.Min != truth {
		t.Fatalf("exact estimate %d != truth %d", after.Min, truth)
	}
}

func TestEstimateWithPendingUpdatesStaysSound(t *testing.T) {
	c := NewColumn("a", []int64{10, 20, 30, 40, 50})
	c.Select(15, 45, true, true)
	c.Insert(25)
	c.Delete(0)
	r := rangeOf("a", 15, 45)
	est := c.EstimateRange(r)
	truth := c.Count(15, 45, true, true)
	if truth < est.Min || truth > est.Max {
		t.Fatalf("truth %d outside estimate [%d,%d] under pending updates", truth, est.Min, est.Max)
	}
}

// Property: estimates always bracket the truth on random workloads.
func TestQuickEstimateSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, 300+rng.Intn(300))
		for i := range vals {
			vals[i] = rng.Int63n(500)
		}
		c := NewColumn("a", vals)
		for q := 0; q < 15; q++ {
			lo := rng.Int63n(450)
			c.Select(lo, lo+rng.Int63n(100), true, true)
			r := rangeOf("a", rng.Int63n(450), rng.Int63n(450)+rng.Int63n(100))
			est := c.EstimateRange(r)
			truth := 0
			for _, v := range vals {
				if r.Match(v) {
					truth++
				}
			}
			if truth < est.Min || truth > est.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectTermPlannedCracksOnlyBestColumn(t *testing.T) {
	tbl := buildTable(t) // k: 0..19, a: 0..190 step 10, b: 100-k
	ct := NewCrackedTable(tbl)

	// Give column a statistics by cracking it narrowly; b stays virgin.
	if _, err := ct.CountRange(rangeOf("a", 50, 60)); err != nil {
		t.Fatal(err)
	}

	term := expr.Term{
		{Col: "a", Op: expr.Ge, Val: 50},
		{Col: "a", Op: expr.Le, Val: 60},
		{Col: "b", Op: expr.Ge, Val: 0}, // advice on b too, but unselective
	}
	oids, driving, _, err := ct.SelectTermPlanned(term, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 2 { // a ∈ {50, 60}
		t.Fatalf("planned select found %d, want 2", len(oids))
	}
	if driving == nil || driving.Name() != "R.a" {
		t.Fatalf("planner drove with %v, want R.a (it has sharp statistics)", driving)
	}
	// b must not have been cracked by the planned select.
	for _, col := range ct.CrackedColumns() {
		if col == "b" {
			t.Fatal("planner cracked the unselective column")
		}
	}
}

func TestSelectTermPlannedMatchesUnplanned(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tbl := buildTable(t)
	planned := NewCrackedTable(tbl)
	unplanned := NewCrackedTable(tbl)
	for q := 0; q < 40; q++ {
		lo := rng.Int63n(150)
		term := termGE_LT("a", lo, lo+40)
		if rng.Intn(2) == 0 {
			term = append(term, expr.Pred{Col: "k", Op: expr.Lt, Val: rng.Int63n(20)})
		}
		a, _, _, err := planned.SelectTermPlanned(term, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := unplanned.SelectTerm(term)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: planned %d oids, unplanned %d", q, len(a), len(b))
		}
	}
}

func TestSelectTermPlannedNoAdvice(t *testing.T) {
	tbl := buildTable(t)
	ct := NewCrackedTable(tbl)
	// Ne-only term has no crackable advice: full scan post-filter.
	oids, driving, _, err := ct.SelectTermPlanned(expr.Term{{Col: "k", Op: expr.Ne, Val: 3}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if driving != nil {
		t.Fatal("driving column for adviceless term")
	}
	if len(oids) != 19 {
		t.Fatalf("found %d, want 19", len(oids))
	}
}

// estimateWalk is EstimateRange as it was before the probes: a walk over
// every piece of a freshly listed cut slice. It stays here as the oracle.
func estimateWalk(c *Column, r expr.Range) Estimate {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := len(c.vals) + len(c.pending) - len(c.deleted)
	if n <= 0 || r.Empty() {
		return Estimate{}
	}
	blur := len(c.pending) + len(c.deleted)
	cuts := c.idx.Cuts()
	if len(cuts) == 0 {
		return Estimate{Min: 0, Max: n}
	}
	est := Estimate{}
	for i := 0; i <= len(cuts); i++ {
		lo, hi := 0, len(c.vals)
		pieceRange := expr.FullRange(r.Col)
		if i > 0 {
			left := cuts[i-1]
			lo = left.Pos
			pieceRange.Low = left.Val
			pieceRange.LowIncl = !left.Incl
		}
		if i < len(cuts) {
			right := cuts[i]
			hi = right.Pos
			pieceRange.High = right.Val
			pieceRange.HighIncl = right.Incl
		}
		size := hi - lo
		if size <= 0 {
			continue
		}
		switch {
		case r.Contains(pieceRange):
			est.Min += size
			est.Max += size
		case !r.Intersect(pieceRange).Empty():
			est.Max += size
		}
	}
	est.Min -= blur
	if est.Min < 0 {
		est.Min = 0
	}
	est.Max += blur
	if est.Max > n {
		est.Max = n
	}
	return est
}

// TestEstimateProbesMatchPieceWalk: the four-probe estimate equals the
// piece walk on random indexes — cracked with every bound inclusivity,
// rippled (twin cuts, empty pieces), with pending inserts and deletes —
// for random ranges including empty, inverted and domain-edge bounds.
func TestEstimateProbesMatchPieceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	edge := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		default:
			return rng.Int63n(220) - 10
		}
	}
	for round := 0; round < 60; round++ {
		vals := make([]int64, 50+rng.Intn(400))
		for i := range vals {
			vals[i] = rng.Int63n(200)
		}
		var opts []Option
		if round%2 == 1 {
			opts = append(opts, WithFold(FoldRipple))
		}
		c := NewColumn("a", vals, opts...)
		for step := 0; step < 40; step++ {
			switch rng.Intn(6) {
			case 0:
				c.Insert(rng.Int63n(200))
			case 1:
				c.Delete(bat.OID(rng.Intn(len(vals))))
			default:
				c.Select(edge(), edge(), rng.Intn(2) == 0, rng.Intn(2) == 0)
			}
			for probe := 0; probe < 8; probe++ {
				r := expr.Range{Col: "a", Low: edge(), High: edge(), LowIncl: rng.Intn(2) == 0, HighIncl: rng.Intn(2) == 0}
				if got, want := c.EstimateRange(r), estimateWalk(c, r); got != want {
					t.Fatalf("round %d step %d %v on %v (pending %d, deleted %d): probes %+v, walk %+v",
						round, step, r, c.idx, len(c.pending), len(c.deleted), got, want)
				}
			}
		}
	}
}

// BenchmarkAblationTermPlanner compares conjunctive-term evaluation with
// and without the index-statistics planner: SelectTerm cracks every
// advised column, SelectTermPlanned estimates first and cracks only the
// winner (paper §3.3).
func BenchmarkAblationTermPlanner(b *testing.B) {
	const n = 100_000
	tap := relation.Tapestry(n, 3, 42)
	rng := rand.New(rand.NewSource(5))
	terms := make([]expr.Term, 256)
	for i := range terms {
		lo := rng.Int63n(n - n/100)
		wide := rng.Int63n(n / 2)
		terms[i] = expr.Term{
			{Col: "c0", Op: expr.Ge, Val: lo},
			{Col: "c0", Op: expr.Le, Val: lo + n/100}, // selective
			{Col: "c1", Op: expr.Ge, Val: wide},       // unselective
		}
	}
	b.Run("crack-all-advised", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ct := NewCrackedTable(tap)
			b.StartTimer()
			for _, term := range terms {
				if _, err := ct.SelectTerm(term); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ct := NewCrackedTable(tap)
			b.StartTimer()
			for _, term := range terms {
				if _, _, _, err := ct.SelectTermPlanned(term, true); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
