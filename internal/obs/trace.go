package obs

import "sync"

// CrackEvent is one physical reorganization recorded by a column under
// its write lock: the predicate that forced it, how much index and data
// movement it caused, and how long the write hold lasted. Events are
// the raw material of the slow-query log — a statement that had to
// crack correlates its wall time with the events that landed during it.
type CrackEvent struct {
	Seq           uint64 // monotonically increasing per TraceBuf
	Shard         int
	Column        string
	Low, High     int64 // the advising range, inclusive: Low <= value <= High
	Cracks        int64 // crack kernel invocations during the hold
	CutsAdded     int64 // new cuts registered in the cracker index
	TuplesTouched int64
	TuplesMoved   int64
	HoldNS        int64 // write-lock hold duration

	// Fold is set when the hold folded pending updates into the column:
	// "ripple" (cuts shifted in place, index kept) or "rebuild" (index
	// dropped); Folded is the number of inserts and deletes it folded.
	Fold   string
	Folded int64
}

// TraceBuf is a fixed-size ring of recent CrackEvents. Recording takes
// a mutex — cracking already holds a column write lock for microseconds,
// so a few nanoseconds of mutex on the same path is noise — while the
// converged read path never touches the ring at all.
//
// Consumers correlate events to a window with Mark and Since: Mark
// before dispatching a statement, Since(mark) after it returns. Events
// from concurrently executing statements can interleave into the
// window; the slow-query log accepts that — every listed event is a
// real reorganization that contended with the slow statement.
type TraceBuf struct {
	mu   sync.Mutex
	ring []CrackEvent
	seq  uint64
}

// NewTraceBuf returns a ring holding the last size events (minimum 16).
func NewTraceBuf(size int) *TraceBuf {
	if size < 16 {
		size = 16
	}
	return &TraceBuf{ring: make([]CrackEvent, size)}
}

// Record appends one event, assigning its sequence number. Nil-safe so
// instrumented code can call it unconditionally.
func (t *TraceBuf) Record(ev CrackEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	t.ring[t.seq%uint64(len(t.ring))] = ev
	t.mu.Unlock()
}

// Mark returns the current sequence number: the start of a window.
func (t *TraceBuf) Mark() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	s := t.seq
	t.mu.Unlock()
	return s
}

// Since returns every retained event recorded after mark, oldest first.
// Events older than the ring's capacity are gone; the returned slice is
// a copy.
func (t *TraceBuf) Since(mark uint64) []CrackEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq <= mark {
		return nil
	}
	first := mark + 1
	if retained := uint64(len(t.ring)); t.seq > retained && t.seq-retained+1 > first {
		first = t.seq - retained + 1
	}
	out := make([]CrackEvent, 0, t.seq-first+1)
	for s := first; s <= t.seq; s++ {
		out = append(out, t.ring[s%uint64(len(t.ring))])
	}
	return out
}
