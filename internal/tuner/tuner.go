// Package tuner implements workload-adaptive crack-strategy selection:
// a per-column monitor that classifies the recent stream of selection
// bounds and decides which crack strategy the column should run.
//
// The signal is bound placement. Standard cracking is the fastest
// variant when bounds land randomly (every query halves a large piece),
// but collapses on monotone walks: a sequential scan of the domain cuts
// one sliver off the same giant piece per query, re-touching nearly the
// whole column every time (the 15× collapse measured in the stochastic
// figure). The stochastic variants (Halim et al., VLDB 2012) buy
// robustness on hostile streams for a constant factor on random ones —
// so the right strategy is a property of the workload, not the store,
// and the monitor's job is to detect which regime each column is in.
//
// Classification is windowed: every Window observed queries the monitor
// looks at the fraction of steps whose low bound moved up (and whose
// high bound moved down) and names the window Sequential, Reverse,
// ZoomIn or Random. The decision table maps classes to strategies:
//
//	Sequential  → ddr     (monotone low-bound walk)
//	Reverse     → ddr     (monotone high-to-low walk)
//	ZoomIn      → ddr     (bounds converging from both sides)
//	Random      → standard
//
// Hysteresis keeps the tuner from thrashing: a flip requires Confirm
// consecutive windows agreeing on the same class, and after any flip
// the column is frozen for Cooldown queries. A column forced by the
// operator (via /tune) never auto-flips until released.
//
// The tuner itself never touches a column: Observe returns advice, and
// the owning store performs the swap. Safety does not depend on the
// tuner at all — a strategy only influences *future* pivot advice, so
// flipping at any moment leaves every registered cut, and therefore
// every result, exactly as a fixed-strategy run would produce.
package tuner

import (
	"sort"
	"strings"
	"sync"
)

// Class names the workload regime a window of bounds was classified as.
type Class int

const (
	Random Class = iota
	Sequential
	Reverse
	ZoomIn
)

func (c Class) String() string {
	switch c {
	case Sequential:
		return "sequential"
	case Reverse:
		return "reverse"
	case ZoomIn:
		return "zoomin"
	default:
		return "random"
	}
}

// Config bounds the monitor's reactivity.
type Config struct {
	// Window is the number of observed queries per classification
	// window. Smaller reacts faster; larger resists noise.
	Window int
	// Confirm is how many consecutive windows must agree on a class
	// before the tuner advises a flip.
	Confirm int
	// Cooldown freezes a column for this many queries after a flip.
	Cooldown int
	// Monotone is the fraction of window steps that must move in one
	// direction for the window to count as a walk. A random stream's
	// fraction concentrates around 0.5, so anything ≥ ~0.8 separates
	// cleanly.
	Monotone float64
}

// DefaultConfig returns the tuning constants used by the store flag.
// Window 64 × Confirm 2 means a flip needs 128 agreeing queries —
// late enough to ignore bursts, early enough that a 1M-row sequential
// walk flips long before standard's collapse dominates the run.
func DefaultConfig() Config {
	return Config{Window: 64, Confirm: 2, Cooldown: 256, Monotone: 0.85}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Window <= 1 {
		c.Window = d.Window
	}
	if c.Confirm <= 0 {
		c.Confirm = d.Confirm
	}
	if c.Cooldown < 0 {
		c.Cooldown = d.Cooldown
	}
	if c.Monotone <= 0 || c.Monotone > 1 {
		c.Monotone = d.Monotone
	}
	return c
}

// Decision is the externally visible posture of one monitored column.
type Decision struct {
	Table, Column string
	Strategy      string // strategy the tuner last decided on
	Class         string // class of the most recently completed window
	Flips         uint64 // strategy changes so far (auto + forced)
	Queries       uint64 // bounds observed
	Forced        bool   // operator-pinned; auto-flipping suspended
}

// colMon is one column's monitor. Guarded by the Tuner mutex.
type colMon struct {
	table, column string

	prevLo, prevHi int64
	seen           bool
	up, down, hiDn int // monotone step counts in the open window
	steps          int

	queries  uint64
	flips    uint64
	cooldown int // queries left before another flip is allowed

	lastClass Class
	streak    int // consecutive windows classified lastClass

	current string // strategy the column currently runs
	forced  bool
}

// Tuner monitors every cracked column of one store (one shard, in a
// sharded deployment). Safe for concurrent use; one mutex serializes
// monitor updates — the work per observation is a handful of compares,
// negligible next to the select that triggered it.
type Tuner struct {
	mu   sync.Mutex
	cfg  Config
	cols map[string]*colMon
}

// New returns a tuner; zero-valued Config fields take defaults.
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.withDefaults(), cols: make(map[string]*colMon)}
}

func colID(table, column string) string { return table + "\x00" + column }

func (t *Tuner) mon(table, column, current string) *colMon {
	m, ok := t.cols[colID(table, column)]
	if !ok {
		// Its own copies of the names: the caller's may be substrings of
		// a query's text.
		m = &colMon{table: strings.Clone(table), column: strings.Clone(column), current: current}
		t.cols[colID(table, column)] = m
	}
	return m
}

// Observe records one answered selection's bounds for (table, column).
// current is the strategy the column runs right now (the tuner trusts
// the column, so a strategy it did not choose — the one a restored
// column carries, say — is observed, not fought).
// It returns the strategy to flip to and true when the decision engine
// wants a change; the caller performs the swap and MUST report it back
// through Flipped so the flip counter and cooldown engage.
func (t *Tuner) Observe(table, column, current string, lo, hi int64) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.mon(table, column, current)
	m.current = current
	m.queries++
	if m.cooldown > 0 {
		m.cooldown--
	}
	if m.seen {
		if lo >= m.prevLo {
			m.up++
		}
		if lo <= m.prevLo {
			m.down++
		}
		if hi <= m.prevHi {
			m.hiDn++
		}
		m.steps++
	}
	m.prevLo, m.prevHi, m.seen = lo, hi, true
	if m.steps < t.cfg.Window-1 {
		return "", false
	}
	class := t.classify(m)
	m.up, m.down, m.hiDn, m.steps = 0, 0, 0, 0
	m.seen = false
	if class == m.lastClass {
		m.streak++
	} else {
		m.lastClass, m.streak = class, 1
	}
	if m.forced || m.streak < t.cfg.Confirm || m.cooldown > 0 {
		return "", false
	}
	want := decisionFor(class)
	if want == m.current {
		return "", false
	}
	return want, true
}

// classify names the just-completed window from its monotone-step
// fractions. ZoomIn is checked first: its low bound walks up *and* its
// high bound walks down, so it would otherwise shadow as Sequential.
func (t *Tuner) classify(m *colMon) Class {
	n := float64(m.steps)
	up, down, hiDn := float64(m.up)/n, float64(m.down)/n, float64(m.hiDn)/n
	switch {
	case up >= t.cfg.Monotone && hiDn >= t.cfg.Monotone:
		return ZoomIn
	case up >= t.cfg.Monotone:
		return Sequential
	case down >= t.cfg.Monotone:
		return Reverse
	default:
		return Random
	}
}

// decisionFor is the decision table (see package comment).
func decisionFor(c Class) string {
	if c == Random {
		return "standard"
	}
	return "ddr"
}

// Flipped records that the caller applied a strategy change on
// (table, column) — advised or forced — engaging the cooldown.
func (t *Tuner) Flipped(table, column, strategy string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.mon(table, column, strategy)
	m.current = strategy
	m.flips++
	m.cooldown = t.cfg.Cooldown
	m.streak = 0
}

// Force pins (table, column): auto-flipping stops until Release. The
// caller still applies the strategy swap itself and reports it via
// Flipped.
func (t *Tuner) Force(table, column string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mon(table, column, "").forced = true
}

// Release returns a forced column to automatic control.
func (t *Tuner) Release(table, column string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m, ok := t.cols[colID(table, column)]; ok {
		m.forced = false
	}
}

// Forget drops the monitors of every column of table, so a table
// created again under the name starts unforced, with no history.
func (t *Tuner) Forget(table string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, m := range t.cols {
		if m.table == table {
			delete(t.cols, id)
		}
	}
}

// Decisions snapshots every monitored column, ordered by (table,
// column) so output surfaces are deterministic.
func (t *Tuner) Decisions() []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Decision, 0, len(t.cols))
	for _, m := range t.cols {
		out = append(out, Decision{
			Table: m.table, Column: m.column,
			Strategy: m.current, Class: m.lastClass.String(),
			Flips: m.flips, Queries: m.queries, Forced: m.forced,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}
