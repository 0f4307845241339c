package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number. N is the sample count behind it (0 for
// a counter or a ratio of counters).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: fewer and the number is one or two outliers, not a
// percentile.
const tailSamples = 10

// percentile returns the nearest-rank p-quantile of sorted (ascending,
// no interpolation). The median needs one sample; any other percentile
// is reported only with at least tailSamples samples beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p != 0.5 && n-rank < tailSamples {
		return 0, false
	}
	return sorted[rank-1], true
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs (0 for none).
func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.5)
	return v
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the steadiness measure BENCHMARK.json's
// bounds are judged against. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q1, med, q3 := quartile(s, 1), quartile(s, 2), quartile(s, 3)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// quartile is cut point i (1..3) of Python's
// statistics.quantiles(sorted, n=4), default "exclusive" method, so the
// spreads printed here are the ones the acceptance rule computes.
func quartile(sorted []float64, i int) float64 {
	ld := len(sorted)
	m := ld + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// promSnap is one /metrics scrape with labels dropped: series of one
// family (the per-shard, per-column rows) are summed. Histogram _bucket
// rows are skipped; _sum and _count are kept.
type promSnap map[string]float64

// parseProm reads Prometheus text exposition lines.
func parseProm(lines []string) (promSnap, error) {
	snap := promSnap{}
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap[name] += v
	}
	return snap, nil
}

// parsePromText splits an exposition blob into lines first.
func parsePromText(text string) (promSnap, error) {
	return parseProm(strings.Split(text, "\n"))
}

// delta returns after-before for every series in after.
func (after promSnap) delta(before promSnap) promSnap {
	d := promSnap{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is a/b, 0 when b is 0 (an unused layer reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
