package crackdb

import (
	"fmt"

	"crackdb/internal/core"
)

// The paper's other three cracker operators, exposed on the store: Ω
// (group cracking), ^ (join cracking) and Ψ (projection cracking). Like
// Select (the Ξ cracker), each both answers its query and leaves the
// store physically better organized.

// GroupInfo describes one piece of an Ω cracking: all tuples holding one
// value of the grouping column, clustered into a consecutive area.
type GroupInfo struct {
	Value int64
	Count int
}

// GroupBy applies the Ω cracker: it clusters the column by value and
// returns one entry per distinct value. Afterwards the column is fully
// value-ordered, so subsequent range queries on it are pure index
// lookups.
func (s *Store) GroupBy(table, col string) ([]GroupInfo, error) {
	c, err := s.columnFor(table, col)
	if err != nil {
		return nil, err
	}
	groups := core.GroupCrack(c)
	out := make([]GroupInfo, len(groups))
	for i, g := range groups {
		out[i] = GroupInfo{Value: g.Value, Count: g.View.Len()}
	}
	return out, nil
}

// SemijoinInfo reports the four pieces of a ^ cracking: tuples of R
// finding a join partner in S, the remainder of R, and likewise for S.
type SemijoinInfo struct {
	RMatch, RRest int
	SMatch, SRest int
}

// SemijoinSplit applies the ^ cracker to R.colR = S.colS: both columns
// are shuffled so matching tuples form a consecutive prefix. The returned
// counts are the piece sizes (P1 = R⋉S, P2 = R∖(R⋉S), P3 = S⋉R,
// P4 = S∖(S⋉R)).
func (s *Store) SemijoinSplit(tableR, colR, tableS, colS string) (SemijoinInfo, error) {
	cR, err := s.columnFor(tableR, colR)
	if err != nil {
		return SemijoinInfo{}, err
	}
	cS, err := s.columnFor(tableS, colS)
	if err != nil {
		return SemijoinInfo{}, err
	}
	full := func(c *core.Column) core.View {
		return c.Select(minInt64(), maxInt64(), true, true)
	}
	pieces := core.JoinCrack(full(cR), full(cS))
	return SemijoinInfo{
		RMatch: pieces.RMatch.Len(),
		RRest:  pieces.RRest.Len(),
		SMatch: pieces.SMatch.Len(),
		SRest:  pieces.SRest.Len(),
	}, nil
}

// VerticalPartition applies the Ψ cracker: the table is split into a
// head piece carrying the given attributes and a rest piece carrying the
// others, both keyed by the surrogate oid column. The pieces are
// registered as tables "<name>_head" and "<name>_rest"; Reunite undoes
// the split.
func (s *Store) VerticalPartition(table string, attrs ...string) (head, rest string, err error) {
	ct, err := s.tableFor(table)
	if err != nil {
		return "", "", err
	}
	h, r, err := core.PsiCrack(ct, attrs...)
	if err != nil {
		return "", "", err
	}
	head, rest = table+"_head", table+"_rest"
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.installLocked(head, h); err != nil {
		return "", "", err
	}
	if err := s.installLocked(rest, r); err != nil {
		delete(s.tables, head) // both pieces or neither
		return "", "", err
	}
	return head, rest, nil
}

// Reunite reconstructs a vertically partitioned table from its head and
// rest pieces via the surrogate 1:1 join, registering it under newName —
// the loss-less inverse of VerticalPartition.
func (s *Store) Reunite(newName, head, rest string, cols ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.tables[head]
	if !ok {
		return fmt.Errorf("crackdb: table %q does not exist", head)
	}
	r, ok := s.tables[rest]
	if !ok {
		return fmt.Errorf("crackdb: table %q does not exist", rest)
	}
	t, err := core.PsiReconstruct(newName, h.Base(), r.Base(), cols)
	if err != nil {
		return err
	}
	return s.installLocked(newName, t)
}

// Lineage renders the cracker lineage DAG of a column (the paper's
// Figure 5 / Figure 6 administration) as an indented tree.
func (s *Store) Lineage(table, col string) (string, error) {
	c, err := s.columnFor(table, col)
	if err != nil {
		return "", err
	}
	return c.Lineage().Render(), nil
}

// ColumnStats reports the physical work a cracked column has absorbed
// (core.Stats: the counters and their Add and Sub) with the column's
// state beside it.
type ColumnStats struct {
	core.Stats
	Pieces int // current piece count

	// Strategy is the column's active crack strategy. Per-column, not
	// per-store: the auto-tuner (or a /tune pin) can leave one table
	// running a mix. A fold of disagreeing columns reports
	// "mixed".
	Strategy string
}

// Add accumulates another column's counters into this one — the fold
// the sharded store and the /stats summary use to total per-shard rows.
// Pieces sums too: the total is "pieces across shards", each shard that
// has the cracker column contributing at least one.
func (cs *ColumnStats) Add(o ColumnStats) {
	switch {
	case cs.Strategy == "":
		cs.Strategy = o.Strategy
	case o.Strategy != "" && o.Strategy != cs.Strategy:
		cs.Strategy = "mixed"
	}
	cs.Stats = cs.Stats.Add(o.Stats)
	cs.Pieces += o.Pieces
}

// Stats returns the work counters of one cracked column. Columns that
// were never filtered on report zero values: like CrackedColumnStats,
// asking never creates cracker state.
//
// Reset semantics: counters live in process memory and are not part of
// the durable snapshot, so after a warm reopen every counter restarts
// at zero even though the physical crack state (Pieces) is restored.
// The obs layer's restarts_total / store_uptime_seconds mark the
// discontinuity for rate computations.
func (s *Store) Stats(table, col string) (ColumnStats, error) {
	ct, err := s.tableFor(table, col)
	if err != nil {
		return ColumnStats{}, err
	}
	if c, ok := ct.Column(col); ok {
		return columnStats(c), nil
	}
	return ColumnStats{}, nil
}

func columnStats(c *core.Column) ColumnStats {
	return ColumnStats{Stats: c.Stats(), Pieces: c.Pieces(), Strategy: c.StrategyName()}
}

// CrackedColumnStats returns the counters of every column of a table
// that actually has cracker state, keyed by attribute name: a table that
// was never filtered on comes back as an empty map. This is the
// inspection path the /stats summary and the metrics collectors use —
// observation must not mutate the store it observes. Reset semantics
// are as in Stats.
func (s *Store) CrackedColumnStats(table string) (map[string]ColumnStats, error) {
	ct, err := s.tableFor(table)
	if err != nil {
		return nil, err
	}
	out := make(map[string]ColumnStats)
	for _, attr := range ct.CrackedColumns() {
		c, ok := ct.Column(attr)
		if !ok {
			continue
		}
		out[attr] = columnStats(c)
	}
	return out, nil
}

func minInt64() int64 { return -1 << 63 }
func maxInt64() int64 { return 1<<63 - 1 }
