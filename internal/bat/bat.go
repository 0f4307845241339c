// Package bat implements a small Binary Association Table (BAT) storage
// kernel in the style of MonetDB, the substrate the paper's kernel-level
// cracker module is built on (paper §3.4.2, Figure 7).
//
// A BAT is a binary relation between a head and a tail column. As in
// MonetDB, the head is a dense, "void" (virtual) sequence of object
// identifiers (OIDs) starting at 0, so only the tail is
// materialized: a contiguous vector of 64-bit integers (the BUN heap).
// The store is integer-valued throughout, so that is the one tail type.
//
// The kernel provides the operations the cracker and the query engines
// need: append and positional access. Zero-copy windows over a column —
// MonetDB's BAT views — are core.View, the cracker's piece views. It
// lives in memory only: a store persists its rows inside its image
// (internal/durable), not in one file per BAT as MonetDB does.
package bat

import "fmt"

// OID is an object identifier: the position of a BUN (binary unit) within
// the dense head sequence of a BAT.
type OID uint32

// BAT is a binary association table with a dense void head and an int64
// tail. The zero value is an empty BAT; construct with NewInt or FromInts.
type BAT struct {
	name string
	ints []int64 // the tail vector
}

// NewInt returns an empty BAT with the given name and initial capacity.
func NewInt(name string, capacity int) *BAT {
	return &BAT{name: name, ints: make([]int64, 0, capacity)}
}

// FromInts builds a BAT that takes ownership of vals.
func FromInts(name string, vals []int64) *BAT {
	return &BAT{name: name, ints: vals}
}

// Name returns the BAT's name.
func (b *BAT) Name() string { return b.name }

// Len returns the number of BUNs.
func (b *BAT) Len() int { return len(b.ints) }

// AppendInts appends BUNs.
func (b *BAT) AppendInts(vs ...int64) { b.ints = append(b.ints, vs...) }

// Int returns the tail value at position i.
func (b *BAT) Int(i int) int64 { return b.ints[i] }

// Ints exposes the raw tail vector. Callers must treat it as read-only
// unless they own the BAT (the cracker core does).
func (b *BAT) Ints() []int64 { return b.ints }

// Clone returns a deep copy of the BAT.
func (b *BAT) Clone(name string) *BAT {
	return &BAT{name: name, ints: append([]int64(nil), b.ints...)}
}

// String renders a short diagnostic description.
func (b *BAT) String() string {
	return fmt.Sprintf("bat[void,int]%s#%d", b.name, b.Len())
}
