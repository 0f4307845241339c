// Package workload generates range-query streams with controlled access
// patterns — the adversarial counterpart to internal/strategy. Standard
// cracking's worst cases are not exotic: a cursor walking the key space
// (Sequential), a tail-first scan (ReverseSequential), an analyst
// drilling into a hotspot (ZoomIn/Skewed), or a dashboard cycling over
// fixed panels (Periodic) all defeat query-driven cut placement. The
// generators here produce those streams deterministically from an
// explicit seed, so the robustness figures and the strategy × workload
// bench matrix are reproducible.
//
// All patterns emit Count half-open ranges [Lo, Hi) over the domain
// [0, Domain), each spanning Selectivity × Domain values.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Pattern names a query-access pattern.
type Pattern string

// The supported patterns.
const (
	// Random draws each query position uniformly — the benign baseline
	// cracking papers evaluate against.
	Random Pattern = "random"
	// Sequential walks the domain low to high in equal steps, so every
	// bound lands immediately after the previous cut: standard
	// cracking's quadratic worst case.
	Sequential Pattern = "sequential"
	// ReverseSequential walks the domain high to low — the mirrored
	// pathology, cracking the uncut prefix over and over.
	ReverseSequential Pattern = "reverse"
	// ZoomIn draws queries from a window that shrinks geometrically
	// around a seeded hotspot: a skewed drill-down workload.
	ZoomIn Pattern = "zoomin"
	// Periodic cycles through a fixed set of evenly spaced positions
	// with small jitter, like dashboard panels refreshing in turn.
	Periodic Pattern = "periodic"
)

// Patterns lists every pattern in presentation order.
func Patterns() []Pattern {
	return []Pattern{Random, Sequential, ReverseSequential, ZoomIn, Periodic}
}

// Parse resolves a pattern name, accepting the aliases used on the
// crackbench command line ("skewed" for zoomin, "seq"/"revsequential"
// spellings for the walks).
func Parse(s string) (Pattern, error) {
	switch s {
	case "random", "rand", "uniform":
		return Random, nil
	case "sequential", "seq":
		return Sequential, nil
	case "reverse", "revsequential", "reverse-sequential", "revseq":
		return ReverseSequential, nil
	case "zoomin", "zoom", "skewed", "skew":
		return ZoomIn, nil
	case "periodic", "period":
		return Periodic, nil
	default:
		return "", fmt.Errorf("workload: unknown pattern %q (want random, sequential, reverse, zoomin, periodic)", s)
	}
}

// Query is one half-open range request [Lo, Hi).
type Query struct {
	Lo, Hi int64
}

// Config parameterizes a generator.
type Config struct {
	Domain      int64   // values are drawn from [0, Domain); required
	Count       int     // number of queries to emit; required
	Selectivity float64 // fraction of the domain each query spans; default 0.01
	Seed        int64   // RNG seed; equal seeds reproduce equal streams
	Periods     int     // Periodic: number of cycled positions; default 8
}

// Generator emits one pattern's query stream. Not safe for concurrent
// use; each consumer should create its own.
type Generator struct {
	pattern Pattern
	cfg     Config
	rng     *rand.Rand
	span    int64
	i       int

	hotspot int64   // ZoomIn focal point
	shrink  float64 // ZoomIn per-query window factor
}

// New validates the config and returns a generator positioned at the
// first query.
func New(p Pattern, cfg Config) (*Generator, error) {
	switch p {
	case Random, Sequential, ReverseSequential, ZoomIn, Periodic:
	default:
		return nil, fmt.Errorf("workload: unknown pattern %q", p)
	}
	if cfg.Domain <= 0 {
		return nil, fmt.Errorf("workload: domain %d must be positive", cfg.Domain)
	}
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("workload: count %d must be positive", cfg.Count)
	}
	if cfg.Selectivity <= 0 {
		cfg.Selectivity = 0.01
	}
	if cfg.Selectivity > 1 {
		cfg.Selectivity = 1
	}
	if cfg.Periods <= 0 {
		cfg.Periods = 8
	}
	g := &Generator{
		pattern: p,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		span:    int64(cfg.Selectivity * float64(cfg.Domain)),
	}
	if g.span < 1 {
		g.span = 1
	}
	if g.span > cfg.Domain {
		g.span = cfg.Domain
	}
	if p == ZoomIn {
		g.hotspot = g.rng.Int63n(cfg.Domain)
		// Shrink the sampling window from the full domain down to a few
		// spans over the course of the stream.
		floor := float64(4 * g.span)
		if floor > float64(cfg.Domain) {
			floor = float64(cfg.Domain)
		}
		if cfg.Count > 1 {
			g.shrink = math.Pow(floor/float64(cfg.Domain), 1/float64(cfg.Count-1))
		} else {
			g.shrink = 1
		}
	}
	return g, nil
}

// Next returns the next query of the stream, or ok=false when Count
// queries have been emitted.
func (g *Generator) Next() (q Query, ok bool) {
	if g.i >= g.cfg.Count {
		return Query{}, false
	}
	maxLo := g.cfg.Domain - g.span // >= 0 by construction
	var lo int64
	switch g.pattern {
	case Random:
		lo = g.rng.Int63n(maxLo + 1)
	case Sequential:
		lo = g.walkPos(maxLo)
	case ReverseSequential:
		lo = maxLo - g.walkPos(maxLo)
	case ZoomIn:
		width := int64(float64(g.cfg.Domain) * math.Pow(g.shrink, float64(g.i)))
		if width < g.span {
			width = g.span
		}
		winLo := g.hotspot - width/2
		if winLo < 0 {
			winLo = 0
		}
		if winLo > g.cfg.Domain-width {
			winLo = g.cfg.Domain - width
		}
		lo = winLo + g.rng.Int63n(width-g.span+1)
	case Periodic:
		stride := (maxLo + 1) / int64(g.cfg.Periods)
		lo = int64(g.i%g.cfg.Periods) * stride
		if jitter := g.span; jitter > 0 {
			lo += g.rng.Int63n(jitter + 1)
		}
		if lo > maxLo {
			lo = maxLo
		}
	}
	g.i++
	return Query{Lo: lo, Hi: lo + g.span}, true
}

// walkPos spreads query i evenly over [0, maxLo] for the walking
// patterns.
func (g *Generator) walkPos(maxLo int64) int64 {
	if g.cfg.Count == 1 {
		return 0
	}
	return int64(float64(maxLo) * float64(g.i) / float64(g.cfg.Count-1))
}

// Queries drains the generator into a slice — convenience for callers
// that replay the stream several times. It returns only what Next has
// not yet returned, so a second call returns an empty slice; a caller
// that wants the stream again builds a new Generator from the same
// Config.
func (g *Generator) Queries() []Query {
	out := make([]Query, 0, g.cfg.Count-g.i)
	for {
		q, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, q)
	}
}
