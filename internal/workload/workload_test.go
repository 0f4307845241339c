package workload

import (
	"slices"
	"testing"
)

func TestAllPatternsStayInDomain(t *testing.T) {
	for _, p := range Patterns() {
		t.Run(string(p), func(t *testing.T) {
			g, err := New(p, Config{Domain: 10000, Count: 500, Selectivity: 0.03, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			qs := g.Queries()
			if len(qs) != 500 {
				t.Fatalf("emitted %d queries, want 500", len(qs))
			}
			for i, q := range qs {
				if q.Lo < 0 || q.Hi > 10000 || q.Hi-q.Lo != g.Span() {
					t.Fatalf("query %d = %+v out of domain (span %d)", i, q, g.Span())
				}
			}
		})
	}
}

// TestQueriesDrains pins that Queries returns what Next has not: after
// two Next calls it returns the rest of the stream, and a second call
// returns an empty slice.
func TestQueriesDrains(t *testing.T) {
	cfg := Config{Domain: 10000, Count: 10, Selectivity: 0.01, Seed: 3}
	whole, err := New(Random, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Queries()
	g, _ := New(Random, cfg)
	g.Next()
	g.Next()
	if got := g.Queries(); !slices.Equal(got, want[2:]) {
		t.Fatalf("Queries after two Next = %v, want %v", got, want[2:])
	}
	if got := g.Queries(); len(got) != 0 {
		t.Fatalf("second Queries = %v, want an empty slice", got)
	}
}

func TestWalksAreMonotone(t *testing.T) {
	seq, err := New(Sequential, Config{Domain: 100000, Count: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := New(ReverseSequential, Config{Domain: 100000, Count: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sq, rq := seq.Queries(), rev.Queries()
	for i := 1; i < len(sq); i++ {
		if sq[i].Lo < sq[i-1].Lo {
			t.Fatalf("sequential not nondecreasing at %d: %d after %d", i, sq[i].Lo, sq[i-1].Lo)
		}
		if rq[i].Lo > rq[i-1].Lo {
			t.Fatalf("reverse not nonincreasing at %d: %d after %d", i, rq[i].Lo, rq[i-1].Lo)
		}
	}
	if sq[0].Lo != 0 || rq[len(rq)-1].Lo != 0 {
		t.Fatalf("walks must cover the domain edges: seq starts %d, rev ends %d", sq[0].Lo, rq[len(rq)-1].Lo)
	}
	if sq[len(sq)-1].Hi != 100000 {
		t.Fatalf("sequential must end at the domain top, got %d", sq[len(sq)-1].Hi)
	}
}

func TestZoomInNarrows(t *testing.T) {
	g, err := New(ZoomIn, Config{Domain: 1 << 20, Count: 400, Selectivity: 0.001, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Queries()
	// The last quarter's positions must cluster far tighter than the
	// first quarter's.
	spread := func(qs []Query) int64 {
		mn, mx := qs[0].Lo, qs[0].Lo
		for _, q := range qs {
			if q.Lo < mn {
				mn = q.Lo
			}
			if q.Lo > mx {
				mx = q.Lo
			}
		}
		return mx - mn
	}
	early, late := spread(qs[:100]), spread(qs[300:])
	if late*8 > early {
		t.Fatalf("zoomin did not narrow: early spread %d, late spread %d", early, late)
	}
}

func TestPeriodicCycles(t *testing.T) {
	g, err := New(Periodic, Config{Domain: 80000, Count: 64, Selectivity: 0.001, Seed: 3, Periods: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := g.Queries()
	// Queries i and i+4 must land near the same position (within jitter).
	for i := 0; i+4 < len(qs); i++ {
		d := qs[i].Lo - qs[i+4].Lo
		if d < 0 {
			d = -d
		}
		if d > 2*g.Span() {
			t.Fatalf("periodic positions %d and %d differ by %d (span %d)", i, i+4, d, g.Span())
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, p := range Patterns() {
		a, err := New(p, Config{Domain: 5000, Count: 100, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := New(p, Config{Domain: 5000, Count: 100, Seed: 77})
		qa, qb := a.Queries(), b.Queries()
		for i := range qa {
			if qa[i] != qb[i] {
				t.Fatalf("%s: same seed diverged at query %d: %+v vs %+v", p, i, qa[i], qb[i])
			}
		}
	}
}

func TestParseAliases(t *testing.T) {
	cases := map[string]Pattern{
		"random": Random, "seq": Sequential, "sequential": Sequential,
		"reverse": ReverseSequential, "revsequential": ReverseSequential,
		"skewed": ZoomIn, "zoomin": ZoomIn, "periodic": Periodic,
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse(bogus) succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Random, Config{Domain: 0, Count: 1}); err == nil {
		t.Fatal("zero domain accepted")
	}
	if _, err := New(Random, Config{Domain: 10, Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := New(Pattern("nope"), Config{Domain: 10, Count: 1}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	// Tiny domains must not panic and must clamp the span.
	g, err := New(Sequential, Config{Domain: 1, Count: 3, Selectivity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range g.Queries() {
		if q.Lo != 0 || q.Hi != 1 {
			t.Fatalf("domain-1 query %+v", q)
		}
	}
}
