package shard

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Kind selects how a table's tuples are distributed over the shards.
type Kind string

// The supported partitioning schemes.
const (
	// Hash spreads tuples by a mixed hash of the key value: uniform
	// placement whatever the key distribution, but a range predicate on
	// the key must visit every shard (equality still routes to one).
	Hash Kind = "hash"
	// Range assigns each shard a contiguous key interval, so range
	// predicates on the key visit only the overlapping shards — at the
	// price of load skew when the key distribution is skewed.
	Range Kind = "range"
)

// ParseKind resolves a partition-kind name.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "hash":
		return Hash, nil
	case "range":
		return Range, nil
	default:
		return "", fmt.Errorf("shard: unknown partition kind %q (want hash or range)", s)
	}
}

// partitioner maps key values to shard indexes. span is the contiguous
// shard interval that can hold keys in the inclusive range [lo, hi] —
// for hash partitioning that is every shard unless the range pins a
// single value. spec is the serializable identity sharded persistence
// round-trips: partFromSpec(p.spec()) routes byte-identically to p.
type partitioner interface {
	route(v int64) int
	span(lo, hi int64) (first, last int)
	describe() string
	spec() PartSpec
}

// PartSpec is the on-disk form of a partitioner: everything routing
// depends on, so a reopened router sends every key to the same shard the
// original did.
type PartSpec struct {
	Kind   Kind    `json:"kind"`
	Shards int     `json:"shards"`
	Bounds []int64 `json:"bounds,omitempty"` // range only: upper-exclusive cut points
}

// partFromSpec rebuilds a partitioner from its serialized identity.
func partFromSpec(sp PartSpec) (partitioner, error) {
	if sp.Shards < 1 {
		return nil, fmt.Errorf("shard: partition spec with %d shards", sp.Shards)
	}
	switch sp.Kind {
	case Hash:
		return hashPart{n: sp.Shards}, nil
	case Range:
		if len(sp.Bounds) != sp.Shards-1 {
			return nil, fmt.Errorf("shard: range spec has %d bounds for %d shards", len(sp.Bounds), sp.Shards)
		}
		for i := 1; i < len(sp.Bounds); i++ {
			if sp.Bounds[i] <= sp.Bounds[i-1] {
				return nil, fmt.Errorf("shard: range spec bounds not strictly increasing at %d", i)
			}
		}
		return rangePart{bounds: append([]int64(nil), sp.Bounds...)}, nil
	default:
		return nil, fmt.Errorf("shard: unknown partition kind %q in spec", sp.Kind)
	}
}

// hashPart routes by a splitmix64 finalizer so adjacent keys land on
// unrelated shards.
type hashPart struct{ n int }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (h hashPart) route(v int64) int { return int(splitmix64(uint64(v)) % uint64(h.n)) }

func (h hashPart) span(lo, hi int64) (int, int) {
	if lo == hi {
		s := h.route(lo)
		return s, s
	}
	return 0, h.n - 1
}

func (h hashPart) describe() string { return fmt.Sprintf("hash(%d)", h.n) }

func (h hashPart) spec() PartSpec { return PartSpec{Kind: Hash, Shards: h.n} }

// rangePart routes by binary search over upper-exclusive split bounds:
// shard i holds keys in [bounds[i-1], bounds[i]), with the first and
// last shards open toward the respective infinities so no key is ever
// unroutable.
type rangePart struct {
	bounds []int64 // len = shards-1, strictly increasing
}

func (r rangePart) route(v int64) int {
	return sort.Search(len(r.bounds), func(i int) bool { return v < r.bounds[i] })
}

func (r rangePart) span(lo, hi int64) (int, int) { return r.route(lo), r.route(hi) }

func (r rangePart) spec() PartSpec {
	return PartSpec{Kind: Range, Shards: len(r.bounds) + 1, Bounds: append([]int64(nil), r.bounds...)}
}

func (r rangePart) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "range(%d, bounds=[", len(r.bounds)+1)
	for i, v := range r.bounds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString("])")
	return b.String()
}

// minSampleRows is the smallest first batch worth deriving sampled range
// bounds from: below it the quantile estimates are noise, and the batch's
// key span is split evenly instead.
const minSampleRows = 64

// sampledBounds derives n-1 strictly-increasing upper-exclusive cut
// points from the observed key distribution, placing near-equal
// populations in each shard — what evenBounds over the keys' span cannot
// do when the keys are skewed (a Zipfian id column, timestamps clustered
// in the recent past, ...). Equal keys never straddle a cut (the cut
// value moves past the run), so heavy duplicates cost balance, not
// correctness. Returns nil when the keys cannot support n distinct
// intervals; the caller splits their span evenly.
func sampledBounds(keys []int64, n int) []int64 {
	if n < 2 || len(keys) < minSampleRows || len(keys) < n {
		return nil
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	out := make([]int64, 0, n-1)
	prev := int64(math.MinInt64)
	havePrev := false
	for i := 1; i < n; i++ {
		q := sorted[len(sorted)*i/n]
		if havePrev && q <= prev {
			continue // duplicate-heavy region: skip the degenerate cut
		}
		out = append(out, q)
		prev, havePrev = q, true
	}
	if len(out) != n-1 {
		return nil // not enough distinct quantiles for n shards
	}
	return out
}

// evenBounds splits the inclusive domain [lo, hi] into n near-equal
// intervals, returning the n-1 upper-exclusive cut points.
func evenBounds(lo, hi int64, n int) []int64 {
	if hi < lo {
		hi = lo
	}
	width := hi - lo + 1
	if width <= 0 { // lo..hi spans the whole int64 axis; halve to avoid overflow
		width = 1 << 62
	}
	out := make([]int64, 0, n-1)
	prev := int64(0)
	for i := 1; i < n; i++ {
		cut := int64(float64(width) * float64(i) / float64(n))
		if cut <= prev { // degenerate tiny domains: keep bounds strictly increasing
			cut = prev + 1
		}
		prev = cut
		out = append(out, lo+cut)
	}
	return out
}
