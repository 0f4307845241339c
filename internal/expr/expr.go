// Package expr represents the query fragments the cracker analyzes:
// simple θ-comparisons and double-sided ranges over one attribute,
// conjunctive terms, and disjunctive normal form — the shape of equation
// (1) in the paper, from which the Ξ/Ψ/^/Ω crackers are extracted during
// the first phase of query translation.
package expr

import (
	"fmt"
	"math"
	"strings"
)

// Op is a comparison operator θ ∈ {<, ≤, =, ≥, >, ≠} (paper §3.1).
type Op uint8

// Comparison operators.
const (
	Lt Op = iota // attr <  cst
	Le           // attr <= cst
	Eq           // attr =  cst
	Ge           // attr >= cst
	Gt           // attr >  cst
	Ne           // attr != cst
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ge:
		return ">="
	case Gt:
		return ">"
	case Ne:
		return "<>"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Pred is a simple selection predicate attr θ cst.
type Pred struct {
	Col string
	Op  Op
	Val int64
}

// Match reports whether value v satisfies the predicate.
func (p Pred) Match(v int64) bool {
	switch p.Op {
	case Lt:
		return v < p.Val
	case Le:
		return v <= p.Val
	case Eq:
		return v == p.Val
	case Ge:
		return v >= p.Val
	case Gt:
		return v > p.Val
	case Ne:
		return v != p.Val
	default:
		return false
	}
}

// String renders the predicate as SQL.
func (p Pred) String() string { return fmt.Sprintf("%s %s %d", p.Col, p.Op, p.Val) }

// Range is a (possibly one-sided) value interval over one attribute:
// attr ∈ [Low, High] with per-bound inclusivity. Unbounded sides use
// math.MinInt64 / math.MaxInt64 with the bound inclusive.
type Range struct {
	Col      string
	Low      int64
	High     int64
	LowIncl  bool
	HighIncl bool
}

// FullRange returns the unbounded range over col.
func FullRange(col string) Range {
	return Range{Col: col, Low: math.MinInt64, High: math.MaxInt64, LowIncl: true, HighIncl: true}
}

// Point returns the degenerate range [v, v]: the paper treats
// point-selections as double-sided ranges with low = high.
func Point(col string, v int64) Range {
	return Range{Col: col, Low: v, High: v, LowIncl: true, HighIncl: true}
}

// RangeOf converts a one-sided θ-predicate into its Range form. Ne has no
// single-interval form and reports ok = false; callers handle it as the
// complement of Eq.
func RangeOf(p Pred) (r Range, ok bool) {
	r = FullRange(p.Col)
	switch p.Op {
	case Lt:
		r.High, r.HighIncl = p.Val, false
	case Le:
		r.High, r.HighIncl = p.Val, true
	case Eq:
		r.Low, r.High, r.LowIncl, r.HighIncl = p.Val, p.Val, true, true
	case Ge:
		r.Low, r.LowIncl = p.Val, true
	case Gt:
		r.Low, r.LowIncl = p.Val, false
	case Ne:
		return r, false
	}
	return r, true
}

// Match reports whether v lies inside the range.
func (r Range) Match(v int64) bool {
	if r.LowIncl {
		if v < r.Low {
			return false
		}
	} else if v <= r.Low {
		return false
	}
	if r.HighIncl {
		if v > r.High {
			return false
		}
	} else if v >= r.High {
		return false
	}
	return true
}

// Empty reports whether the range can contain no value.
func (r Range) Empty() bool {
	if r.Low > r.High {
		return true
	}
	if r.Low == r.High {
		return !(r.LowIncl && r.HighIncl)
	}
	return false
}

// Intersect returns the intersection of two ranges over the same column.
func (r Range) Intersect(o Range) Range {
	out := r
	if o.Low > out.Low || (o.Low == out.Low && !o.LowIncl) {
		out.Low, out.LowIncl = o.Low, o.LowIncl
	}
	if o.High < out.High || (o.High == out.High && !o.HighIncl) {
		out.High, out.HighIncl = o.High, o.HighIncl
	}
	return out
}

// Contains reports whether o is fully inside r.
func (r Range) Contains(o Range) bool {
	if o.Empty() {
		return true
	}
	loOK := o.Low > r.Low || (o.Low == r.Low && (r.LowIncl || !o.LowIncl))
	hiOK := o.High < r.High || (o.High == r.High && (r.HighIncl || !o.HighIncl))
	return loOK && hiOK
}

// String renders the range in interval notation.
func (r Range) String() string {
	lb, rb := "(", ")"
	if r.LowIncl {
		lb = "["
	}
	if r.HighIncl {
		rb = "]"
	}
	return fmt.Sprintf("%s ∈ %s%d,%d%s", r.Col, lb, r.Low, r.High, rb)
}

// Term is a conjunction of simple predicates.
type Term []Pred

// Match evaluates the conjunction against a named row.
func (t Term) Match(row map[string]int64) bool {
	for _, p := range t {
		if !p.Match(row[p.Col]) {
			return false
		}
	}
	return true
}

// String renders the term as SQL.
func (t Term) String() string {
	parts := make([]string, len(t))
	for i, p := range t {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// DNF is a disjunction of conjunctive terms: the normal form the paper
// assumes queries arrive in (§3.1).
type DNF []Term

// Match evaluates the disjunction.
func (d DNF) Match(row map[string]int64) bool {
	for _, t := range d {
		if t.Match(row) {
			return true
		}
	}
	return len(d) == 0
}

// String renders the DNF as SQL.
func (d DNF) String() string {
	parts := make([]string, len(d))
	for i, t := range d {
		parts[i] = "(" + t.String() + ")"
	}
	return strings.Join(parts, " OR ")
}

// CrackAdvice extracts, per column, the conjunction of range constraints
// a term implies — the "advice to crack the database" a query carries
// (paper §1). Ne predicates contribute no advice.
func CrackAdvice(t Term) map[string]Range {
	advice := make(map[string]Range)
	for _, p := range t {
		r, ok := RangeOf(p)
		if !ok {
			continue
		}
		if cur, seen := advice[p.Col]; seen {
			advice[p.Col] = cur.Intersect(r)
		} else {
			advice[p.Col] = r
		}
	}
	return advice
}
