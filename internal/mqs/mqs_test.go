package mqs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRhoEndpoints(t *testing.T) {
	for _, d := range []Dist{Linear, Exponential, Logarithmic} {
		start := Rho(d, 0, 20, 0.2)
		end := Rho(d, 20, 20, 0.2)
		if start < 0.9 {
			t.Errorf("%s: ρ(0) = %g, want ≈1", d, start)
		}
		if end > 0.25 {
			t.Errorf("%s: ρ(k) = %g, want ≈σ", d, end)
		}
	}
}

func TestRhoMonotoneNonIncreasing(t *testing.T) {
	for _, d := range []Dist{Linear, Exponential, Logarithmic} {
		prev := math.Inf(1)
		for i := 0; i <= 20; i++ {
			r := Rho(d, i, 20, 0.2)
			if r > prev+1e-12 {
				t.Fatalf("%s: ρ(%d) = %g > ρ(%d) = %g", d, i, r, i-1, prev)
			}
			if r < 0.2-1e-12 || r > 1+1e-12 {
				t.Fatalf("%s: ρ(%d) = %g outside [σ,1]", d, i, r)
			}
			prev = r
		}
	}
}

func TestRhoShapes(t *testing.T) {
	// Exponential contracts faster than linear early; logarithmic slower.
	k := 20
	early := k / 4
	lin := Rho(Linear, early, k, 0.2)
	exp := Rho(Exponential, early, k, 0.2)
	log := Rho(Logarithmic, early, k, 0.2)
	if !(exp < lin && lin < log) {
		t.Fatalf("shape order at step %d: exp=%g lin=%g log=%g, want exp<lin<log", early, exp, lin, log)
	}
}

func TestRhoDegenerate(t *testing.T) {
	if got := Rho(Linear, 5, 0, 0.3); got != 0.3 {
		t.Fatalf("ρ with k=0 = %g", got)
	}
}

func TestMQSValidate(t *testing.T) {
	good := MQS{Alpha: 2, N: 100, K: 10, Sigma: 0.1, Rho: Linear}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MQS{
		{Alpha: 0, N: 100, K: 10, Sigma: 0.1},
		{Alpha: 1, N: 0, K: 10, Sigma: 0.1},
		{Alpha: 1, N: 100, K: 0, Sigma: 0.1},
		{Alpha: 1, N: 100, K: 10, Sigma: 0},
		{Alpha: 1, N: 100, K: 10, Sigma: 1.5},
		{Alpha: 1, N: 100, K: 10, Sigma: 0.1, Delta: 2},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: %v validated", i, m)
		}
	}
}

// selectivity is the fraction of 1..n the query selects.
func selectivity(q Query, n int) float64 {
	return float64(q.High-q.Low+1) / float64(n)
}

func TestHomerunConverges(t *testing.T) {
	m := MQS{Alpha: 1, N: 100000, K: 20, Sigma: 0.05, Rho: Linear}
	qs, err := Homerun(m, "c0", 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != m.K {
		t.Fatalf("sequence length %d, want %d", len(qs), m.K)
	}
	final := qs[len(qs)-1]
	// Final query hits the target selectivity.
	if sel := selectivity(final, m.N); math.Abs(sel-m.Sigma) > 0.01 {
		t.Fatalf("final selectivity %g, want %g", sel, m.Sigma)
	}
	// Every query contains the final target and ranges shrink.
	prevW := int64(m.N) + 1
	for i, q := range qs {
		if q.Low > final.Low || q.High < final.High {
			t.Fatalf("step %d range [%d,%d] does not contain target [%d,%d]",
				i, q.Low, q.High, final.Low, final.High)
		}
		w := q.High - q.Low + 1
		if w > prevW {
			t.Fatalf("step %d range grew: %d > %d", i, w, prevW)
		}
		prevW = w
		if q.Low < 1 || q.High > int64(m.N) {
			t.Fatalf("step %d range [%d,%d] outside domain", i, q.Low, q.High)
		}
	}
}

func TestHomerunNesting(t *testing.T) {
	m := MQS{Alpha: 1, N: 50000, K: 16, Sigma: 0.1, Rho: Exponential}
	qs, err := Homerun(m, "c0", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].Low < qs[i-1].Low || qs[i].High > qs[i-1].High {
			t.Fatalf("step %d [%d,%d] not nested in step %d [%d,%d]",
				i, qs[i].Low, qs[i].High, i-1, qs[i-1].Low, qs[i-1].High)
		}
	}
}

func TestHikingFixedSizeWindows(t *testing.T) {
	m := MQS{Alpha: 1, N: 100000, K: 15, Sigma: 0.08, Rho: Linear}
	qs, err := Hiking(m, "c0", 5)
	if err != nil {
		t.Fatal(err)
	}
	w := qs[0].High - qs[0].Low + 1
	for i, q := range qs {
		if got := q.High - q.Low + 1; got != w {
			t.Fatalf("step %d width %d, want constant %d", i, got, w)
		}
		if q.Low < 1 || q.High > int64(m.N) {
			t.Fatalf("step %d outside domain", i)
		}
	}
	// Consecutive windows overlap (δ > 0 throughout under ρ-derived overlap).
	for i := 1; i < len(qs); i++ {
		ovLo := maxInt64(qs[i-1].Low, qs[i].Low)
		ovHi := minInt64(qs[i-1].High, qs[i].High)
		if ovHi < ovLo {
			t.Fatalf("steps %d,%d do not overlap", i-1, i)
		}
	}
	// The final pair overlaps fully (δ → 100%).
	last, prev := qs[len(qs)-1], qs[len(qs)-2]
	if last != prev {
		t.Fatalf("final windows differ: %+v vs %+v", prev, last)
	}
}

func TestStrollingSelectivityFollowsRho(t *testing.T) {
	m := MQS{Alpha: 1, N: 100000, K: 12, Sigma: 0.05, Rho: Logarithmic}
	qs, err := Strolling(m, "c0", 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want := Rho(m.Rho, i+1, m.K, m.Sigma)
		if got := selectivity(q, m.N); math.Abs(got-want) > 0.01 {
			t.Fatalf("step %d selectivity %g, want %g", i, got, want)
		}
	}
}

func TestSequenceGeneratorsRejectBadMQS(t *testing.T) {
	bad := MQS{Alpha: 1, N: 0, K: 5, Sigma: 0.1}
	if _, err := Homerun(bad, "c0", 1); err == nil {
		t.Error("Homerun accepted bad MQS")
	}
	if _, err := Hiking(bad, "c0", 1); err == nil {
		t.Error("Hiking accepted bad MQS")
	}
	if _, err := Strolling(bad, "c0", 1); err == nil {
		t.Error("Strolling accepted bad MQS")
	}
}

// Property: homerun queries always stay inside the domain and contain
// their final target, for arbitrary parameters.
func TestQuickHomerunInvariants(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint16, sigmaRaw uint8) bool {
		k := int(kRaw%60) + 1
		n := int(nRaw%5000) + 100
		sigma := (float64(sigmaRaw%90) + 1) / 100
		m := MQS{Alpha: 1, N: n, K: k, Sigma: sigma, Rho: Linear}
		qs, err := Homerun(m, "c0", seed)
		if err != nil || len(qs) != k {
			return false
		}
		final := qs[len(qs)-1]
		for _, q := range qs {
			if q.Low < 1 || q.High > int64(n) || q.Low > q.High {
				return false
			}
			if q.Low > final.Low || q.High < final.High {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRenderings(t *testing.T) {
	m := MQS{Alpha: 2, N: 100, K: 10, Sigma: 0.1, Rho: Exponential, Delta: 0.5}
	s := m.String()
	if s == "" || Dist(9).String() == "" {
		t.Fatal("String renderings empty")
	}
	for _, d := range []Dist{Linear, Exponential, Logarithmic} {
		if d.String() == "" {
			t.Fatalf("Dist %d empty name", d)
		}
	}
}

func TestQueryRange(t *testing.T) {
	q := Query{Col: "c0", Low: 5, High: 14}
	r := q.Range()
	if r.Col != "c0" || !r.Match(5) || !r.Match(14) || r.Match(15) || r.Match(4) {
		t.Fatalf("Range = %v", r)
	}
}

func TestHikingExplicitDelta(t *testing.T) {
	m := MQS{Alpha: 1, N: 10000, K: 8, Sigma: 0.1, Rho: Linear, Delta: 0.75}
	qs, err := Hiking(m, "c0", 3)
	if err != nil {
		t.Fatal(err)
	}
	w := qs[0].High - qs[0].Low + 1
	for i := 1; i < len(qs)-1; i++ {
		shift := qs[i].Low - qs[i-1].Low
		if shift < 0 {
			shift = -shift
		}
		// δ=0.75 fixed overlap: shift = (1-δ)·w, except when clamped at
		// the domain edges.
		want := int64(float64(w) * 0.25)
		if shift != want && qs[i].Low != 1 && qs[i].High != int64(m.N) {
			t.Fatalf("step %d shift = %d, want %d", i, shift, want)
		}
	}
}
