package crackdb

// Workload-adaptive strategy auto-tuning: the store-side binding of
// internal/tuner. When enabled, every answered selection's bounds are
// fed (outside all table and column locks) to a per-column monitor; when
// the monitor detects a hostile bound pattern it advises a strategy, and
// the store hot-swaps the column — payload vectors and all, they have no
// strategy of their own — to that strategy. A flip only changes future
// pivot advice, never
// registered cuts, so results stay byte-identical to any fixed-strategy
// run; see DESIGN.md (Workload-adaptive tuning) for the safety
// argument and the decision table.

import (
	"fmt"

	"crackdb/internal/core"
	"crackdb/internal/expr"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
)

// EnableAutotune turns on workload-adaptive strategy selection with the
// given monitor configuration (zero-valued fields take tuner defaults).
// The tuner is the process's, like the store strategy: nothing of it is
// imaged, so after a reopen each column's monitor starts from the
// strategy the column's own record restored, with no flips and no pin.
// Enabling twice is a no-op.
func (s *Store) EnableAutotune(cfg tuner.Config) {
	s.autotune.CompareAndSwap(nil, tuner.New(cfg))
}

// AutotuneEnabled reports whether the tuner is running.
func (s *Store) AutotuneEnabled() bool { return s.autotune.Load() != nil }

// TuneDecisions snapshots the tuner's per-column posture, ordered by
// (table, column). Nil when autotune is disabled.
func (s *Store) TuneDecisions() []tuner.Decision {
	tn := s.autotune.Load()
	if tn == nil {
		return nil
	}
	return tn.Decisions()
}

// ForceStrategy pins (table, col) to a strategy: the column flips
// immediately and the tuner stops auto-flipping it
// until ReleaseStrategy. The column is created if the table exists but
// has not been cracked on col yet.
func (s *Store) ForceStrategy(table, col, name string) error {
	tn := s.autotune.Load()
	if tn == nil {
		return fmt.Errorf("crackdb: autotune is not enabled")
	}
	name, err := canonicalStrategy(name)
	if err != nil {
		return err
	}
	c, err := s.columnFor(table, col)
	if err != nil {
		return err
	}
	tn.Force(table, col)
	s.flipColumn(c, table, col, name)
	tn.Flipped(table, col, name)
	return nil
}

// ReleaseStrategy returns a forced column to automatic control.
func (s *Store) ReleaseStrategy(table, col string) error {
	tn := s.autotune.Load()
	if tn == nil {
		return fmt.Errorf("crackdb: autotune is not enabled")
	}
	tn.Release(table, col)
	return nil
}

// observe feeds one answered selection to the tuner's monitor and
// applies any advised flip. Runs outside every table and column lock.
func (s *Store) observe(tn *tuner.Tuner, ct *core.CrackedTable, table string, r expr.Range) {
	c, ok := ct.Column(r.Col)
	if !ok {
		return
	}
	want, flip := tn.Observe(table, r.Col, c.StrategyName(), r.Low, r.High)
	if !flip {
		return
	}
	s.flipColumn(c, table, r.Col, want)
	tn.Flipped(table, r.Col, want)
}

// flipColumn hot-swaps the strategy of one column. The swap computes its
// replacement under the column's lock via strategy.Handoff, so RNG
// position carries across the flip and the whole run stays
// deterministic. A Handoff error (unreachable for tuner-chosen names)
// keeps the old strategy.
func (s *Store) flipColumn(c *core.Column, table, col, name string) {
	s.mu.RLock()
	base := s.strategySeed
	s.mu.RUnlock()
	c.SwapStrategy(func(old core.CrackStrategy) core.CrackStrategy {
		next, err := strategy.Handoff(old, name, columnSeed(base, table, col))
		if err != nil {
			return old
		}
		return next
	})
}

// columnSeed derives the deterministic seed a tuner flip hands a
// column's fresh strategy: the store seed mixed with an FNV-1a hash of
// the column identity, so a store and its warm-reopened twin derive the
// same one whatever order their columns were created in; the salt is
// part of the derivation existing images and recorded runs were made
// with.
func columnSeed(base int64, table, col string) int64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(table + "." + col) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return base ^ int64(h) ^ 0x5bd1e995
}

// canonicalStrategy validates a strategy name and folds aliases onto
// the names columns report ("" and "std" → "standard").
func canonicalStrategy(name string) (string, error) {
	st, err := strategy.New(name, 0)
	if err != nil {
		return "", fmt.Errorf("crackdb: %w", err)
	}
	if st.Name == "" {
		return "standard", nil
	}
	return st.Name, nil
}
