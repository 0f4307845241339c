package shard_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"crackdb"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// TestClassifierAgreesWithRouter: the SQL classifier's batch range and
// the router's shard span come from one fold, crackdb.Interval. A
// conjunction the classifier batches routes to exactly the shards its
// range spans, or to none when the range is empty; one it declines — a
// <>, an unknown operator, a second column — the router refuses or
// routes by the key conditions that do narrow.
func TestClassifierAgreesWithRouter(t *testing.T) {
	m := shard.NewTableMeta("k", "k", "v")
	part := shard.RangePart(-100, 0, 100)
	all, none := [2]int{0, 3}, [2]int{0, -1}
	cases := []struct {
		name    string
		conds   []crackdb.Cond
		batched bool
		route   [2]int // the router's [first, last]; none is {0, -1}
		refused bool   // the router rejects the conjunction
	}{
		{"lt-min", []crackdb.Cond{{Col: "k", Op: "<", Val: math.MinInt64}}, true, none, false},
		{"gt-max", []crackdb.Cond{{Col: "k", Op: ">", Val: math.MaxInt64}}, true, none, false},
		{"two-eq", []crackdb.Cond{{Col: "k", Op: "=", Val: 5}, {Col: "k", Op: "=", Val: 7}}, true, none, false},
		{"eq-twice", []crackdb.Cond{{Col: "k", Op: "=", Val: 5}, {Col: "k", Op: "=", Val: 5}}, true, [2]int{2, 2}, false},
		{"range", []crackdb.Cond{{Col: "k", Op: ">=", Val: -50}, {Col: "k", Op: "<", Val: 50}}, true, [2]int{1, 2}, false},
		{"ne", []crackdb.Cond{{Col: "k", Op: "<>", Val: 5}}, false, all, false},
		{"ne-in-range", []crackdb.Cond{{Col: "k", Op: ">", Val: 150}, {Col: "k", Op: "<>", Val: 200}}, false, [2]int{3, 3}, false},
		{"unknown-op", []crackdb.Cond{{Col: "k", Op: "~", Val: 5}}, false, none, true},
		{"second-col", []crackdb.Cond{{Col: "k", Op: "<=", Val: -200}, {Col: "v", Op: "=", Val: 3}}, false, [2]int{0, 0}, false},
		{"lt-min-second-col", []crackdb.Cond{{Col: "k", Op: "<", Val: math.MinInt64}, {Col: "v", Op: "=", Val: 3}}, false, none, false},
	}
	for _, c := range cases {
		where := make([]string, len(c.conds))
		for i, cd := range c.conds {
			where[i] = fmt.Sprintf("%s %s %d", cd.Col, cd.Op, cd.Val)
		}
		rc, batched := sql.ClassifyRangeCount("SELECT COUNT(*) FROM t WHERE " + strings.Join(where, " AND "))
		if batched != c.batched {
			t.Fatalf("%s: classifier batched=%v, want %v (%+v)", c.name, batched, c.batched, rc)
		}
		if err := shard.Check(m, "t", c.conds); (err != nil) != c.refused {
			t.Fatalf("%s: router check %v, want refused=%v", c.name, err, c.refused)
		}
		if c.refused {
			continue
		}
		first, last, empty := shard.Targets(m, part, c.conds)
		if got := [2]int{first, last}; got != c.route || empty != (c.route == none) {
			t.Fatalf("%s: router span %v (empty %v), want %v", c.name, got, empty, c.route)
		}
		if !batched {
			continue
		}
		want := none
		if rc.Low <= rc.High {
			want[0], want[1] = shard.Span(part, rc.Low, rc.High)
		}
		if want != c.route {
			t.Fatalf("%s: classifier range [%d, %d] spans %v, router %v", c.name, rc.Low, rc.High, want, c.route)
		}
	}
}
