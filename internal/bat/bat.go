// Package bat implements a small Binary Association Table (BAT) storage
// kernel in the style of MonetDB, the substrate the paper's kernel-level
// cracker module is built on (paper §3.4.2, Figure 7).
//
// A BAT is a binary relation between a head and a tail column. As in
// MonetDB, the head is a dense, "void" (virtual) sequence of object
// identifiers (OIDs) starting at a sequence base, so only the tail is
// materialized: a contiguous vector of 64-bit integers (the BUN heap).
// The store is integer-valued throughout, so that is the one tail type.
//
// The kernel provides the operations the cracker and the query engines
// need: append, positional access and zero-copy views (MonetDB BAT
// views). It lives in memory only: a store persists its rows inside its
// image (internal/durable), not in one file per BAT as MonetDB does.
package bat

import "fmt"

// OID is an object identifier: the position of a BUN (binary unit) within
// the dense head sequence of a BAT.
type OID uint32

// BAT is a binary association table with a dense void head and an int64
// tail. The zero value is an empty BAT; construct with NewInt or FromInts.
//
// A BAT may be a view on another BAT (see View), in which case it shares
// the parent's storage and must not be appended to.
type BAT struct {
	name string
	hseq OID     // head sequence base (first OID)
	ints []int64 // the tail vector

	view   bool // true when this BAT shares storage with a parent
	parent *BAT // parent of a view, nil otherwise
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

// SetName renames the BAT.
func (b *BAT) SetName(name string) { b.name = name }

// Len returns the number of BUNs.
func (b *BAT) Len() int { return len(b.ints) }

// HSeqBase returns the first OID of the dense head sequence.
func (b *BAT) HSeqBase() OID { return b.hseq }

// IsView reports whether the BAT shares storage with a parent.
func (b *BAT) IsView() bool { return b.view }

// Parent returns the parent of a view, or nil.
func (b *BAT) Parent() *BAT { return b.parent }

// AppendInt appends a BUN. It returns an error when the BAT is a view
// (views are read-only windows).
func (b *BAT) AppendInt(v int64) error { return b.AppendInts(v) }

// AppendInts appends many BUNs at once.
func (b *BAT) AppendInts(vs ...int64) error {
	if b.view {
		return fmt.Errorf("bat: append to view %q", b.name)
	}
	b.ints = append(b.ints, vs...)
	return nil
}

// Int returns the tail value at position i (relative to the view).
func (b *BAT) Int(i int) int64 { return b.ints[i] }

// SetInt overwrites the tail value at position i. Allowed on views: the
// cracker shuffles tuples inside view windows in place.
func (b *BAT) SetInt(i int, v int64) { b.ints[i] = v }

// Ints exposes the raw tail vector. Callers must treat it as read-only
// unless they own the BAT (the cracker core does).
func (b *BAT) Ints() []int64 { return b.ints }

// OID returns the head OID for position i.
func (b *BAT) OID(i int) OID { return b.hseq + OID(i) }

// View returns a zero-copy window [lo, hi) over the BAT, the equivalent
// of a MonetDB BAT view: "its physical location is determined by a range
// of tuples in another BAT" (paper §3.4.2). The view's head sequence base
// is shifted so OIDs remain those of the parent.
func (b *BAT) View(lo, hi int) *BAT {
	if lo < 0 || hi > b.Len() || lo > hi {
		panic(fmt.Sprintf("bat: view [%d,%d) out of range on %q (len %d)", lo, hi, b.name, b.Len()))
	}
	return &BAT{
		name:   fmt.Sprintf("%s[%d:%d]", b.name, lo, hi),
		hseq:   b.hseq + OID(lo),
		ints:   b.ints[lo:hi:hi],
		view:   true,
		parent: b,
	}
}

// Clone returns a deep copy of the BAT (views become standalone BATs).
func (b *BAT) Clone(name string) *BAT {
	return &BAT{name: name, hseq: b.hseq, ints: append([]int64(nil), b.ints...)}
}

// String renders a short diagnostic description.
func (b *BAT) String() string {
	kind := "bat"
	if b.view {
		kind = "view"
	}
	return fmt.Sprintf("%s[void,int]%s#%d", kind, b.name, b.Len())
}
