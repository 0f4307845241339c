package engine

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"crackdb/internal/mqs"
	"crackdb/internal/relation"
)

func tapestry(t *testing.T, n int) *relation.Table {
	t.Helper()
	return relation.Tapestry(n, 2, 101)
}

func TestStrategiesAgreeOnCounts(t *testing.T) {
	tbl := tapestry(t, 5000)
	m := mqs.MQS{Alpha: 2, N: 5000, K: 25, Sigma: 0.05, Rho: mqs.Linear}
	qs, err := mqs.Strolling(m, "c0", 7)
	if err != nil {
		t.Fatal(err)
	}

	sessions := map[Strategy]*Session{}
	for _, strat := range []Strategy{NoCrack, SortFirst, Crack} {
		s, err := NewSession(tbl, "c0", strat)
		if err != nil {
			t.Fatal(err)
		}
		sessions[strat] = s
	}
	for i, q := range qs {
		var counts [3]int
		for _, strat := range []Strategy{NoCrack, SortFirst, Crack} {
			st, err := sessions[strat].Run(q, ModeCount, nil)
			if err != nil {
				t.Fatalf("step %d %s: %v", i, strat, err)
			}
			counts[strat] = st.Count
		}
		if counts[NoCrack] != counts[SortFirst] || counts[NoCrack] != counts[Crack] {
			t.Fatalf("step %d: counts diverge: %v (query %+v)", i, counts, q)
		}
		// Tapestry columns are permutations of 1..N: a closed range fully
		// inside the domain selects exactly its width.
		want := int(q.High - q.Low + 1)
		if q.Low >= 1 && q.High <= 5000 && counts[NoCrack] != want {
			t.Fatalf("step %d: count %d, want %d", i, counts[NoCrack], want)
		}
	}
}

func TestCrackGetsCheaperNoCrackDoesNot(t *testing.T) {
	tbl := tapestry(t, 20000)
	m := mqs.MQS{Alpha: 2, N: 20000, K: 40, Sigma: 0.02, Rho: mqs.Linear}
	qs, err := mqs.StrollingUniform(m, "c0", 3)
	if err != nil {
		t.Fatal(err)
	}

	crack, _ := NewSession(tbl, "c0", Crack)
	scan, _ := NewSession(tbl, "c0", NoCrack)

	crackStats, err := crack.RunSequence(qs, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	scanStats, err := scan.RunSequence(qs, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Scans touch N tuples every single query.
	for i, st := range scanStats {
		if st.TuplesTouched != 20000 {
			t.Fatalf("scan step %d touched %d, want 20000", i, st.TuplesTouched)
		}
	}
	// Cracking touches less and less: the last quarter must be far below
	// the first query.
	var tail int64
	for _, st := range crackStats[30:] {
		tail += st.TuplesTouched
	}
	tailAvg := tail / 10
	if tailAvg > crackStats[0].TuplesTouched/4 {
		t.Fatalf("cracking did not converge: first=%d tail avg=%d",
			crackStats[0].TuplesTouched, tailAvg)
	}
}

func TestSortFirstPaysUpfront(t *testing.T) {
	tbl := tapestry(t, 10000)
	s, _ := NewSession(tbl, "c0", SortFirst)
	q := mqs.Query{Col: "c0", Low: 100, High: 600}
	st1, err := s.Run(q, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st1.TuplesMoved == 0 {
		t.Fatal("first query did not pay the sort")
	}
	if s.SortCost() == 0 {
		t.Fatal("sort cost not recorded")
	}
	st2, err := s.Run(q, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TuplesMoved != 0 {
		t.Fatal("second query moved tuples on a sorted column")
	}
	if st2.Count != st1.Count {
		t.Fatal("sorted answers diverge")
	}
}

func TestDeliveryModes(t *testing.T) {
	tbl := tapestry(t, 1000)
	for _, strat := range []Strategy{NoCrack, SortFirst, Crack} {
		s, _ := NewSession(tbl, "c0", strat)
		q := mqs.Query{Col: "c0", Low: 10, High: 59}

		var buf bytes.Buffer
		stPrint, err := s.Run(q, ModePrint, &buf)
		if err != nil {
			t.Fatalf("%s print: %v", strat, err)
		}
		if lines := strings.Count(buf.String(), "\n"); lines != stPrint.Count {
			t.Fatalf("%s: printed %d lines for %d tuples", strat, lines, stPrint.Count)
		}
		stMat, err := s.Run(q, ModeMaterialize, io.Discard)
		if err != nil {
			t.Fatalf("%s materialize: %v", strat, err)
		}
		if stMat.Count != 50 {
			t.Fatalf("%s: materialize count = %d, want 50", strat, stMat.Count)
		}
		if stMat.TuplesMoved < int64(stMat.Count) {
			t.Fatalf("%s: materialization charged %d writes for %d tuples", strat, stMat.TuplesMoved, stMat.Count)
		}
	}
}

func TestPrintValuesExtremes(t *testing.T) {
	var buf bytes.Buffer
	if err := printValues(&buf, []int64{math.MinInt64, -1, 0, math.MaxInt64}); err != nil {
		t.Fatal(err)
	}
	if want := "-9223372036854775808\n-1\n0\n9223372036854775807\n"; buf.String() != want {
		t.Fatalf("printed %q, want %q", buf.String(), want)
	}
}

func TestHomerunCrackBeatsScan(t *testing.T) {
	// The Figure 10 shape at test scale: cumulative cracking work is far
	// below cumulative scanning work for a converging sequence.
	n := 30000
	tbl := tapestry(t, n)
	m := mqs.MQS{Alpha: 2, N: n, K: 30, Sigma: 0.05, Rho: mqs.Linear}
	qs, err := mqs.Homerun(m, "c0", 9)
	if err != nil {
		t.Fatal(err)
	}
	crack, _ := NewSession(tbl, "c0", Crack)
	scan, _ := NewSession(tbl, "c0", NoCrack)
	cs, err := crack.RunSequence(qs, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := scan.RunSequence(qs, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	var crackWork, scanWork int64
	for i := range cs {
		crackWork += cs[i].TuplesTouched + cs[i].TuplesMoved
		scanWork += ss[i].TuplesTouched
	}
	// Linear contraction keeps ranges wide for a while, so the win is
	// modest (the paper's factor ≈ 4 appears at k = 128).
	if float64(crackWork) >= 0.75*float64(scanWork) {
		t.Fatalf("cracking work %d not below scan work %d", crackWork, scanWork)
	}

	// Exponential contraction zooms fast: the win must be large.
	m.Rho = mqs.Exponential
	qs, err = mqs.Homerun(m, "c1", 9)
	if err != nil {
		t.Fatal(err)
	}
	crack2, _ := NewSession(tbl, "c1", Crack)
	scan2, _ := NewSession(tbl, "c1", NoCrack)
	cs2, err := crack2.RunSequence(qs, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := scan2.RunSequence(qs, ModeCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	crackWork, scanWork = 0, 0
	for i := range cs2 {
		crackWork += cs2[i].TuplesTouched + cs2[i].TuplesMoved
		scanWork += ss2[i].TuplesTouched
	}
	if crackWork*3 >= scanWork {
		t.Fatalf("exponential homerun: cracking work %d not ≪ scan work %d", crackWork, scanWork)
	}
}

func TestSessionErrors(t *testing.T) {
	tbl := tapestry(t, 100)
	if _, err := NewSession(tbl, "nope", Crack); err == nil {
		t.Fatal("session on missing column created")
	}
	s := &Session{strategy: Strategy(99)}
	if _, err := s.Run(mqs.Query{}, ModeCount, nil); err == nil {
		t.Fatal("unknown strategy ran")
	}
}

func TestStrategyAccessors(t *testing.T) {
	tbl := tapestry(t, 100)
	for _, c := range []struct {
		strat Strategy
		name  string
	}{{NoCrack, "nocrack"}, {SortFirst, "sort"}, {Crack, "crack"}, {Strategy(9), "Strategy(9)"}} {
		if c.strat.String() != c.name {
			t.Fatalf("Strategy(%d).String = %q, want %q", c.strat, c.strat.String(), c.name)
		}
	}
	s, err := NewSession(tbl, "c0", Crack)
	if err != nil {
		t.Fatal(err)
	}
	if s.Strategy() != Crack || s.Column() == nil {
		t.Fatal("accessors wrong for crack session")
	}
	scan, _ := NewSession(tbl, "c0", NoCrack)
	if scan.Column() != nil {
		t.Fatal("scan session has a cracker column")
	}
}

func TestHikingSequenceUnderEngine(t *testing.T) {
	tbl := tapestry(t, 20000)
	m := mqs.MQS{Alpha: 2, N: 20000, K: 20, Sigma: 0.05, Rho: mqs.Linear}
	qs, err := mqs.Hiking(m, "c0", 11)
	if err != nil {
		t.Fatal(err)
	}
	crack, _ := NewSession(tbl, "c0", Crack)
	scan, _ := NewSession(tbl, "c0", NoCrack)
	for i, q := range qs {
		a, err := crack.Run(q, ModeCount, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scan.Run(q, ModeCount, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count != b.Count {
			t.Fatalf("hiking step %d: crack %d != scan %d", i, a.Count, b.Count)
		}
	}
	// Overlapping windows reuse cuts: cracking work far below scan work.
	var crackWork int64
	cs := crack.Column().Stats()
	crackWork = cs.TuplesTouched
	if crackWork >= int64(20000*len(qs))/2 {
		t.Fatalf("hiking crack touched %d tuples, close to scanning", crackWork)
	}
}
