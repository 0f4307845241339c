package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

// Payload vectors: sideways cracking (Idreos, Kersten & Manegold) on the
// cracker column itself. A payload is one more vector aligned with
// (vals, oids) — pays[k].vals[i] is attribute k of the tuple oids[i] —
// that every crack kernel, update fold and delete compaction permutes
// together with them. Projecting the attribute for a key range is then
// "select the window, copy the aligned window": a sequential read under
// the column's own lock, index and strategy, instead of one random
// base-table access per qualifying tuple.
//
// A payload is built by one gather through the column's current OID
// order, so it is as converged as the column the instant it exists.
// Reorganizations that are not a kernel, a fold or a compaction (a full
// sort, ^ and Ω cracking, an insert that arrives without its payload
// values) drop the column's payloads instead of carrying them; the next
// projection gathers them again. Which payloads may live at all is
// internal/sideways' business (budget, LRU); the column only stamps the
// ones a projection reads.

type payload struct {
	attr string
	vals []int64       // aligned with c.vals
	pend []int64       // pend[p.row] belongs to the pending insert p
	used atomic.Uint64 // stamp of the last projection (or build) that touched it
}

// swapPays exchanges positions i and j of every payload vector. It stays
// out of line so the crack kernels keep their two-slice loop body; they
// call it behind a flag hoisted out of the loop.
//
//go:noinline
func swapPays(pays []*payload, i, j int) {
	for _, p := range pays {
		p.vals[i], p.vals[j] = p.vals[j], p.vals[i]
	}
}

func (c *Column) payloadLocked(attr string) *payload {
	for _, p := range c.pays {
		if p.attr == attr {
			return p
		}
	}
	return nil
}

// dropPaysLocked discards every payload vector: the caller is about to
// permute the column in a way the payloads cannot follow. A payload set
// that changed is written back whole.
func (c *Column) dropPaysLocked() {
	if len(c.pays) == 0 {
		return
	}
	c.stats.paysDropped.Add(int64(len(c.pays)))
	c.pays = nil
	c.markWholeLocked()
}

// attachPayload gathers attr's payload vector through the column's
// current OID order from src, the attribute's base vector indexed by OID,
// and stamps it. An attribute already attached is only stamped. The
// caller keeps src stable for the duration (CrackedTable holds baseMu).
func (c *Column) attachPayload(attr string, src []int64, stamp uint64) (built bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.payloadLocked(attr); p != nil {
		p.used.Store(stamp)
		return false, nil
	}
	p := &payload{attr: attr, vals: make([]int64, len(c.vals)), pend: make([]int64, len(c.pending))}
	for i, oid := range c.oids {
		if int(oid) >= len(src) {
			return false, fmt.Errorf("core: column %q stores oid %d, %q has %d base rows", c.name, oid, attr, len(src))
		}
		p.vals[i] = src[oid]
	}
	for i, q := range c.pending {
		if int(q.oid) >= len(src) {
			return false, fmt.Errorf("core: column %q queues oid %d, %q has %d base rows", c.name, q.oid, attr, len(src))
		}
		p.pend[i] = src[q.oid]
	}
	p.used.Store(stamp)
	c.pays = append(c.pays, p)
	c.markWholeLocked()
	return true, nil
}

// PayloadInfo names one live payload vector and its last-use stamp.
type PayloadInfo struct {
	Attr string
	Used uint64
}

// Payloads lists the column's live payload vectors.
func (c *Column) Payloads() []PayloadInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]PayloadInfo, len(c.pays))
	for i, p := range c.pays {
		out[i] = PayloadInfo{Attr: p.attr, Used: p.used.Load()}
	}
	return out
}

// DropPayload discards one payload vector (the LRU budget's eviction),
// reporting whether it was live.
func (c *Column) DropPayload(attr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.pays)
	c.pays = slices.DeleteFunc(c.pays, func(p *payload) bool { return p.attr == attr })
	if len(c.pays) == n {
		return false
	}
	c.markWholeLocked()
	return true
}

// ProjectStatus says what Column.Project did with a request.
type ProjectStatus uint8

const (
	Projected      ProjectStatus = iota
	PayloadMissing               // an attribute has no payload vector: attach it and ask again
	SelectionStale               // the range no longer holds exactly the tuples of sel
)

// Project answers r like SelectCopy and copies out, under the same lock
// hold — the read lock when both cuts exist — the aligned window of every
// requested attribute: wins[j][i] is attrs[j] of the i-th tuple of the
// window. r.Col names the column's own attribute, served from the value
// vector; every other attribute needs a live payload, which is stamped.
//
// sel is the OID answer of the selection the caller projects. Tuples only
// leave a range by deletion and only enter it with an OID above every one
// handed out before, so a window of len(sel) tuples none of which is
// newer than sel's newest is exactly sel; anything else is stale and the
// caller reconstructs its own snapshot through the base table.
func (c *Column) Project(r expr.Range, attrs []string, sel []bat.OID, stamp uint64) (wins [][]int64, st ProjectStatus) {
	c.answer(r.Low, r.High, r.LowIncl, r.HighIncl, func(v View) {
		wins, st = c.projectLocked(v, r.Col, attrs, sel, stamp)
	})
	return wins, st
}

// projectLocked copies the windows of v. The caller holds c.mu in either
// mode; the windows are cut from one backing array.
func (c *Column) projectLocked(v View, key string, attrs []string, sel []bat.OID, stamp uint64) ([][]int64, ProjectStatus) {
	srcs := make([][]int64, len(attrs))
	for j, a := range attrs {
		if a == key {
			srcs[j] = c.vals
		} else if p := c.payloadLocked(a); p != nil {
			srcs[j] = p.vals
			p.used.Store(stamp)
		} else {
			return nil, PayloadMissing
		}
	}
	n := v.Len()
	if n != len(sel) {
		return nil, SelectionStale
	}
	var newest bat.OID
	for _, oid := range sel {
		newest = max(newest, oid)
	}
	for _, oid := range c.oids[v.Lo:v.Hi] {
		if oid > newest {
			return nil, SelectionStale
		}
	}
	backing := make([]int64, n*len(attrs))
	for j, src := range srcs {
		win := backing[j*n : (j+1)*n : (j+1)*n]
		copy(win, src[v.Lo:v.Hi])
		srcs[j] = win
	}
	return srcs, Projected
}

// PayloadState is one exported payload vector: attribute Attr of every
// stored tuple, aligned with ColumnState.Vals, and of every pending
// insert, aligned with ColumnState.Pending.
type PayloadState struct {
	Attr string
	Vals []int64
	Pend []int64
}
