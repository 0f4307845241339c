// Package mqs implements the paper's multi-query benchmark generation
// kit (§4): the selectivity distribution functions ρ of Figure 8 and the
// homerun / hiking / strolling user profiles that generate query
// sequences over a DBtapestry table (relation.Tapestry).
//
// The query sequence space is characterised by the tuple
//
//	MQS(α, N, k, σ, ρ, δ)
//
// with α the table arity, N its cardinality, k the sequence length, σ
// the target selectivity, ρ the selectivity distribution function and δ
// the pair-wise answer overlap.
package mqs

import (
	"fmt"
	"math"
	"math/rand"

	"crackdb/internal/expr"
)

// Dist selects a selectivity distribution function ρ(i, k, σ).
type Dist uint8

// The three convergence models of §4 (Figure 8).
const (
	Linear      Dist = iota // constant-rate contraction
	Exponential             // fast contraction first, fine-tuning in the tail
	Logarithmic             // near-full ranges until contraction in the tail
)

// String names the distribution.
func (d Dist) String() string {
	switch d {
	case Linear:
		return "linear"
	case Exponential:
		return "exponential"
	case Logarithmic:
		return "logarithmic"
	default:
		return fmt.Sprintf("Dist(%d)", uint8(d))
	}
}

// rhoLambda tunes the exponential/logarithmic contraction speed. The
// paper's printed formulas are OCR-garbled; λ = 5/k preserves the plotted
// shape: ρ(0) ≈ 1, ρ(k) ≈ σ, with the contraction concentrated at the
// head (exponential) or the tail (logarithmic). See DESIGN.md.
const rhoLambda = 5.0

// Rho evaluates the selectivity distribution function ρ(i, k, σ): the
// fraction of the table the i-th query of a k-step sequence converging to
// target selectivity σ selects (i runs 0..k).
func Rho(d Dist, i, k int, sigma float64) float64 {
	if k <= 0 {
		return sigma
	}
	x := float64(i)
	kf := float64(k)
	var rho float64
	switch d {
	case Linear:
		// (1 - i(1-σ)/k)·N at step i (paper §4, homerun).
		rho = 1 - x*(1-sigma)/kf
	case Exponential:
		rho = sigma + (1-sigma)*math.Exp(-rhoLambda*x/kf)
	case Logarithmic:
		rho = 1 - (1-sigma)*math.Exp(-rhoLambda*(kf-x)/kf)
	default:
		rho = sigma
	}
	if rho < sigma {
		rho = sigma
	}
	if rho > 1 {
		rho = 1
	}
	return rho
}

// MQS is the benchmark descriptor tuple (α, N, k, σ, ρ, δ).
type MQS struct {
	Alpha int     // table arity
	N     int     // table cardinality
	K     int     // sequence length
	Sigma float64 // target selectivity
	Rho   Dist    // selectivity distribution function
	Delta float64 // pair-wise overlap (hiking); 0 derives it from Rho
}

// String renders the descriptor.
func (m MQS) String() string {
	return fmt.Sprintf("MQS(α=%d, N=%d, k=%d, σ=%.2f, ρ=%s, δ=%.2f)",
		m.Alpha, m.N, m.K, m.Sigma, m.Rho, m.Delta)
}

// Validate reports the first implausible parameter.
func (m MQS) Validate() error {
	switch {
	case m.Alpha < 1:
		return fmt.Errorf("mqs: arity %d < 1", m.Alpha)
	case m.N < 1:
		return fmt.Errorf("mqs: cardinality %d < 1", m.N)
	case m.K < 1:
		return fmt.Errorf("mqs: sequence length %d < 1", m.K)
	case m.Sigma <= 0 || m.Sigma > 1:
		return fmt.Errorf("mqs: target selectivity %g outside (0,1]", m.Sigma)
	case m.Delta < 0 || m.Delta > 1:
		return fmt.Errorf("mqs: overlap %g outside [0,1]", m.Delta)
	default:
		return nil
	}
}

// Query is one step of a multi-query sequence: a closed value range over
// one attribute of the tapestry table (values are 1..N, so selectivity
// equals range width / N).
type Query struct {
	Col  string
	Low  int64 // inclusive
	High int64 // inclusive
}

// Range converts the query to its expr form.
func (q Query) Range() expr.Range {
	return expr.Range{Col: q.Col, Low: q.Low, High: q.High, LowIncl: true, HighIncl: true}
}

// Homerun generates the homerun profile (§4): a user zooming into a
// target subset of σN tuples in exactly k steps. Every query range
// contains the final target and ranges shrink monotonically following ρ;
// answers therefore reduce monotonically ("a sequence of range
// refinements and monotonously reducing answer sets").
func Homerun(m MQS, col string, seed int64) ([]Query, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := int64(m.N)
	targetW := widthFor(m.Sigma, n)
	targetLo := 1 + rng.Int63n(n-targetW+1)
	targetHi := targetLo + targetW - 1

	queries := make([]Query, 0, m.K)
	prevLo, prevHi := int64(1), n
	for i := 1; i <= m.K; i++ {
		w := widthFor(Rho(m.Rho, i, m.K, m.Sigma), n)
		if w < targetW {
			w = targetW
		}
		// Choose a range of width w with target ⊆ range ⊆ previous range.
		loMin := maxInt64(prevLo, targetHi-w+1)
		loMax := minInt64(targetLo, prevHi-w+1)
		if loMax < loMin {
			loMax = loMin
		}
		lo := loMin + rng.Int63n(loMax-loMin+1)
		hi := lo + w - 1
		if hi > n {
			hi = n
			lo = hi - w + 1
		}
		queries = append(queries, Query{Col: col, Low: lo, High: hi})
		prevLo, prevHi = lo, hi
	}
	return queries, nil
}

// Hiking generates the hiking profile (§4): consecutive answer sets of
// fixed size σN whose overlap δ(i) grows until it reaches 100% at the end
// of the sequence — a window sliding toward the final point of interest.
func Hiking(m MQS, col string, seed int64) ([]Query, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := int64(m.N)
	w := widthFor(m.Sigma, n)

	lo := 1 + rng.Int63n(maxInt64(n-w+1, 1))
	queries := make([]Query, 0, m.K)
	for i := 1; i <= m.K; i++ {
		queries = append(queries, Query{Col: col, Low: lo, High: lo + w - 1})
		if i == m.K {
			break
		}
		// Overlap with the next answer: δ(i) = ρ(i, k, 0) by the paper's
		// definition δ(i,k,σ) = ρ(i,k,0), unless a fixed δ was requested.
		// Overlap reaches 100% (shift 0) at the end of the sequence.
		delta := m.Delta
		if delta == 0 {
			delta = Rho(m.Rho, i, m.K, 0)
		}
		shift := int64(float64(w) * (1 - delta))
		if rng.Intn(2) == 0 {
			shift = -shift
		}
		lo += shift
		if lo < 1 {
			lo = 1
		}
		if lo+w-1 > n {
			lo = n - w + 1
		}
	}
	return queries, nil
}

// Strolling generates the strolling profile (§4): random browsing with no
// intra-query dependency. Each step draws its selectivity from ρ (using
// the step index, producing a converging stroll) and places the range
// uniformly at random: "the query bounds of the value range are
// determined at random".
func Strolling(m MQS, col string, seed int64) ([]Query, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := int64(m.N)
	queries := make([]Query, 0, m.K)
	for i := 1; i <= m.K; i++ {
		w := widthFor(Rho(m.Rho, i, m.K, m.Sigma), n)
		lo := 1 + rng.Int63n(maxInt64(n-w+1, 1))
		queries = append(queries, Query{Col: col, Low: lo, High: lo + w - 1})
	}
	return queries, nil
}

// widthFor converts a selectivity into a range width over domain 1..n.
func widthFor(sel float64, n int64) int64 {
	w := int64(math.Round(sel * float64(n)))
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
