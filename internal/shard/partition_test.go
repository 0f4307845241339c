package shard

import (
	"math"
	"math/rand"
	"testing"

	"crackdb"
)

func TestKeyBounds(t *testing.T) {
	cases := []struct {
		name   string
		conds  []crackdb.Cond
		lo, hi int64
		empty  bool
	}{
		{"none", nil, math.MinInt64, math.MaxInt64, false},
		{"range", []crackdb.Cond{{Col: "k", Op: ">=", Val: 10}, {Col: "k", Op: "<", Val: 20}}, 10, 19, false},
		{"strict", []crackdb.Cond{{Col: "k", Op: ">", Val: 10}, {Col: "k", Op: "<=", Val: 20}}, 11, 20, false},
		{"eq", []crackdb.Cond{{Col: "k", Op: "=", Val: 7}}, 7, 7, false},
		{"eq-narrows", []crackdb.Cond{{Col: "k", Op: "=", Val: 7}, {Col: "k", Op: ">=", Val: 3}}, 7, 7, false},
		{"other-col", []crackdb.Cond{{Col: "v", Op: ">=", Val: 3}}, math.MinInt64, math.MaxInt64, false},
		{"contradiction", []crackdb.Cond{{Col: "k", Op: ">", Val: 20}, {Col: "k", Op: "<", Val: 10}}, 0, 0, true},
		{"ne-ignored", []crackdb.Cond{{Col: "k", Op: "<>", Val: 5}}, math.MinInt64, math.MaxInt64, false},
		{"lt-min-empty", []crackdb.Cond{{Col: "k", Op: "<", Val: math.MinInt64}}, 0, 0, true},
		{"gt-max-empty", []crackdb.Cond{{Col: "k", Op: ">", Val: math.MaxInt64}}, 0, 0, true},
	}
	for _, c := range cases {
		lo, hi, _, err := crackdb.Interval("k", c.conds)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		empty := lo > hi
		if empty != c.empty {
			t.Fatalf("%s: empty=%v want %v", c.name, empty, c.empty)
		}
		if !empty && (lo != c.lo || hi != c.hi) {
			t.Fatalf("%s: [%d,%d] want [%d,%d]", c.name, lo, hi, c.lo, c.hi)
		}
	}
}

func TestEvenBoundsStrictlyIncreasing(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		n      int
	}{{0, 1 << 20, 4}, {1, 1000, 8}, {0, 1, 4}, {5, 5, 3}, {-100, 100, 5}} {
		b := evenBounds(tc.lo, tc.hi, tc.n)
		if len(b) != tc.n-1 {
			t.Fatalf("evenBounds(%d,%d,%d): %d bounds, want %d", tc.lo, tc.hi, tc.n, len(b), tc.n-1)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("evenBounds(%d,%d,%d): not strictly increasing: %v", tc.lo, tc.hi, tc.n, b)
			}
		}
	}
}

func TestRangePartCoversAxis(t *testing.T) {
	p := rangePart{bounds: evenBounds(0, 1000, 4)}
	for _, v := range []int64{math.MinInt64, -1, 0, 250, 500, 999, 1000, 5000, math.MaxInt64} {
		s := p.route(v)
		if s < 0 || s > 3 {
			t.Fatalf("route(%d) = %d out of range", v, s)
		}
	}
	if f, l := p.span(0, 1000); f != 0 || l != 3 {
		t.Fatalf("full span = [%d,%d], want [0,3]", f, l)
	}
	if f, l := p.span(10, 10); f != l {
		t.Fatalf("point span = [%d,%d], want a single shard", f, l)
	}
	lo, hi := p.span(100, 400)
	if lo > hi {
		t.Fatalf("span inverted: [%d,%d]", lo, hi)
	}
}

// TestSampledBoundsSkew is the satellite's skew test: under a heavily
// skewed key distribution the even domain split dumps almost everything
// on one shard, while sampled quantile bounds land near-equal
// populations.
func TestSampledBoundsSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 40_000
	const shards = 4
	// Zipf-ish skew over a huge configured domain: ~99% of the keys live
	// in the bottom 1% of [0, 1<<20].
	zipf := rand.NewZipf(rng, 1.3, 8, 1<<20-1)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(zipf.Uint64())
	}

	spread := func(p partitioner) (min, max int) {
		counts := make([]int, shards)
		for _, k := range keys {
			counts[p.route(k)]++
		}
		min, max = counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return min, max
	}

	evenMin, evenMax := spread(rangePart{bounds: evenBounds(0, 1<<20, shards)})
	bounds := sampledBounds(keys, shards)
	if bounds == nil {
		t.Fatal("sampledBounds declined a 40k-key sample")
	}
	if len(bounds) != shards-1 {
		t.Fatalf("got %d bounds, want %d", len(bounds), shards-1)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("sampled bounds not strictly increasing: %v", bounds)
		}
	}
	sampMin, sampMax := spread(rangePart{bounds: bounds})

	if evenMin > 0 && evenMax/evenMin < 100 {
		t.Fatalf("skew premise broken: even split spread only %d..%d", evenMin, evenMax)
	}
	if sampMin == 0 || sampMax/sampMin > 3 {
		t.Fatalf("sampled bounds still skewed: %d..%d (even split: %d..%d)",
			sampMin, sampMax, evenMin, evenMax)
	}
}

// TestFirstInsertSamplesBounds: a range table's first batch sets
// data-driven bounds end to end, and the persisted spec round-trips them.
func TestFirstInsertSamplesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := New(Options{Shards: 4, Kind: Range})
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	// Keys inside [0, 4000), drawn at random.
	rows := make([][]int64, 10_000)
	for i := range rows {
		rows[i] = []int64{rng.Int63n(4000), rng.Int63n(100)}
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	min, max := -1, -1
	for i := 0; i < s.ShardCount(); i++ {
		n, err := s.Shard(i).NumRows("t")
		if err != nil {
			t.Fatal(err)
		}
		if min == -1 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 || max > 2*min {
		t.Fatalf("first-batch sampling left populations %d..%d", min, max)
	}
	// The routing must actually have left the placeholder behind.
	placeholder := (rangePart{bounds: evenBounds(0, 0, 4)}).describe()
	if s.Partitions()[0].Scheme == placeholder {
		t.Fatal("partitioner still describes the placeholder split after sampling")
	}
	// A later batch must NOT move the bounds (rows are already routed).
	before := s.Partitions()[0].Scheme
	if err := s.InsertRows("t", [][]int64{{1 << 19, 1}}); err != nil {
		t.Fatal(err)
	}
	if after := s.Partitions()[0].Scheme; after != before {
		t.Fatalf("bounds moved after the first batch:\n before %s\n after  %s", before, after)
	}
}

func TestPartSpecRoundTrip(t *testing.T) {
	for _, p := range []partitioner{
		hashPart{n: 4},
		rangePart{bounds: evenBounds(0, 1000, 8)},
		rangePart{bounds: []int64{-5, 0, 99}},
	} {
		got, err := partFromSpec(p.spec())
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(-2000); v < 2000; v += 7 {
			if got.route(v) != p.route(v) {
				t.Fatalf("%s: route(%d) diverges after spec round-trip", p.describe(), v)
			}
		}
	}
	if _, err := partFromSpec(PartSpec{Kind: Range, Shards: 3, Bounds: []int64{5, 5}}); err == nil {
		t.Fatal("accepted non-increasing range bounds")
	}
	if _, err := partFromSpec(PartSpec{Kind: "banana", Shards: 2}); err == nil {
		t.Fatal("accepted an unknown partition kind")
	}
}

func TestHashPartSpan(t *testing.T) {
	p := hashPart{n: 4}
	if f, l := p.span(3, 3); f != l || f != p.route(3) {
		t.Fatalf("point span [%d,%d] should pin shard %d", f, l, p.route(3))
	}
	if f, l := p.span(0, 10); f != 0 || l != 3 {
		t.Fatalf("range span [%d,%d], want all shards", f, l)
	}
	// Routing must be a pure function of the value.
	for v := int64(-50); v < 50; v++ {
		if p.route(v) != p.route(v) {
			t.Fatal("route not deterministic")
		}
	}
}

// TestSmallFirstBatchSplitsItsSpan: a first batch too small to sample
// splits the span of its own keys evenly — no configured domain, no knob.
func TestSmallFirstBatchSplitsItsSpan(t *testing.T) {
	s := New(Options{Shards: 4, Kind: Range})
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	for k := int64(100); k <= 190; k += 10 {
		rows = append(rows, []int64{k, 1})
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Partitions()[0].Scheme, (rangePart{bounds: evenBounds(100, 190, 4)}).describe(); got != want {
		t.Fatalf("a %d-row first batch routes by %s, want %s", len(rows), got, want)
	}
}
