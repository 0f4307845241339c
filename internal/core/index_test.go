package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// check asserts the layout invariants of the leaves under ix: no leaf is
// empty or over leafCap, every leaf but a lone one holds at least
// leafCap/4 cuts, each top value is its leaf's first cut, cuts ascend
// strictly across leaf boundaries, and size is the sum of the leaves. The
// position table must then hold exactly the leaves' values, each
// reachable from its home slot, at the positions Cuts reports.
func (ix *Index) check() error {
	if len(ix.topV) != len(ix.leaves) {
		return fmt.Errorf("%d leaves under %d top values", len(ix.leaves), len(ix.topV))
	}
	n, pv := 0, int64(0) // pv: the cut before, across leaves
	for li, l := range ix.leaves {
		switch k := len(l); {
		case k == 0 || k > leafCap:
			return fmt.Errorf("leaf %d holds %d cuts, want 1..%d", li, k, leafCap)
		case k < leafCap/4 && len(ix.leaves) > 1:
			return fmt.Errorf("leaf %d of %d holds %d cuts, want >= %d", li, len(ix.leaves), k, leafCap/4)
		case ix.topV[li] != l[0]:
			return fmt.Errorf("leaf %d: top value %d, first cut %d", li, ix.topV[li], l[0])
		}
		for j, v := range l {
			if n+j > 0 && v <= pv {
				return fmt.Errorf("leaf %d slot %d: %d after %d", li, j, v, pv)
			}
			pv = v
		}
		n += len(l)
	}
	if n != ix.size {
		return fmt.Errorf("size %d, leaves hold %d", ix.size, n)
	}
	return ix.checkSlots()
}

// checkSlots asserts that the position table is a power of two of slots
// at most slotLoadNum/slotLoadDen full, holds Len() cuts, finds each one
// from its home slot, and holds each leaf value at the position Cuts
// reports.
func (ix *Index) checkSlots() error {
	k := len(ix.slots)
	if k == 0 {
		if ix.size > 0 {
			return fmt.Errorf("%d cuts, no table", ix.size)
		}
		return nil
	}
	if k < minSlots || k&(k-1) != 0 || ix.shift != uint(64-bits.TrailingZeros(uint(k))) {
		return fmt.Errorf("table of %d slots, shift %d", k, ix.shift)
	}
	held := 0
	for i, s := range ix.slots {
		if s.w == 0 {
			continue
		}
		held++
		if s.w&1 == 0 {
			return fmt.Errorf("slot %d: w %#x without the occupied bit", i, s.w)
		}
		if j, found := ix.probe(s.val); !found || j != i {
			return fmt.Errorf("slot %d: %d probes to slot %d, found %v", i, s.val, j, found)
		}
	}
	if held != ix.size || held*slotLoadDen > k*slotLoadNum {
		return fmt.Errorf("table of %d slots holds %d cuts, Len %d", k, held, ix.size)
	}
	cuts, c := ix.Cuts(), 0
	for _, l := range ix.leaves {
		for _, v := range l {
			i, found := ix.probe(v)
			if !found || ix.slots[i].pos() != cuts[c].Pos {
				return fmt.Errorf("leaf value %d, cut %+v: slot %d found %v, w %#x", v, cuts[c], i, found, ix.slots[i].w)
			}
			c++
		}
	}
	return nil
}

func TestIndexInsertFind(t *testing.T) {
	ix := &Index{}
	ix.Insert(10, 3)
	ix.Insert(11, 5)
	ix.Insert(20, 8)

	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	if pos, ok := ix.Find(10); !ok || pos != 3 {
		t.Fatalf("Find(10) = %d,%v", pos, ok)
	}
	if pos, ok := ix.Find(11); !ok || pos != 5 {
		t.Fatalf("Find(11) = %d,%v", pos, ok)
	}
	if _, ok := ix.Find(15); ok {
		t.Fatal("Find(15) should miss")
	}
	// Overwrite does not grow the index.
	ix.Insert(10, 3)
	if ix.Len() != 3 {
		t.Fatalf("Len after overwrite = %d, want 3", ix.Len())
	}
}

func TestIndexFloorCeil(t *testing.T) {
	ix := &Index{}
	ix.Insert(10, 3)
	ix.Insert(20, 8)
	ix.Insert(21, 9)
	floor := func(val int64) (Cut, bool) {
		f, ok, _, _ := ix.Neighbours(val)
		return f, ok
	}
	ceil := func(val int64) (Cut, bool) {
		_, _, c, ok := ix.Neighbours(val)
		return c, ok
	}

	// Floor of an existing cut is the cut itself.
	if c, ok := floor(20); !ok || c != (Cut{20, 8}) {
		t.Fatalf("floor(20) = %v,%v", c, ok)
	}
	// Floor between cuts.
	if c, ok := floor(16); !ok || c != (Cut{10, 3}) {
		t.Fatalf("floor(16) = %v,%v", c, ok)
	}
	// Adjacent values are distinct cuts.
	if c, ok := floor(21); !ok || c != (Cut{21, 9}) {
		t.Fatalf("floor(21) = %v,%v", c, ok)
	}
	// Nothing below the smallest cut.
	if _, ok := floor(6); ok {
		t.Fatal("floor(6) should miss")
	}
	// Ceil is strictly greater.
	if c, ok := ceil(10); !ok || c != (Cut{20, 8}) {
		t.Fatalf("ceil(10) = %v,%v", c, ok)
	}
	if c, ok := ceil(20); !ok || c.Val != 21 {
		t.Fatalf("ceil(20) = %v,%v", c, ok)
	}
	if _, ok := ceil(21); ok {
		t.Fatal("ceil past largest cut should miss")
	}
}

func TestIndexDelete(t *testing.T) {
	ix := &Index{}
	for i := 0; i < 20; i++ {
		ix.Insert(int64(i), i)
	}
	if !ix.Delete(7) {
		t.Fatal("Delete(7) failed")
	}
	if ix.Delete(7) {
		t.Fatal("double Delete(7) succeeded")
	}
	if _, ok := ix.Find(7); ok {
		t.Fatal("deleted cut still found")
	}
	if ix.Len() != 19 {
		t.Fatalf("Len = %d, want 19", ix.Len())
	}
	// Remaining cuts intact and ordered.
	cuts := ix.Cuts()
	if len(cuts) != 19 {
		t.Fatalf("Cuts = %d", len(cuts))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i-1].Val >= cuts[i].Val {
			t.Fatal("cuts out of order after delete")
		}
	}
}

func TestIndexPieces(t *testing.T) {
	ix := &Index{}
	if got := ix.Pieces(10); len(got) != 1 || got[0] != [2]int{0, 10} {
		t.Fatalf("empty index Pieces = %v", got)
	}
	ix.Insert(5, 3)
	ix.Insert(9, 7)
	got := ix.Pieces(10)
	want := [][2]int{{0, 3}, {3, 7}, {7, 10}}
	if len(got) != len(want) {
		t.Fatalf("Pieces = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pieces = %v, want %v", got, want)
		}
	}
	// Cuts at duplicate positions collapse to a single boundary.
	ix.Insert(6, 3)
	if got := ix.Pieces(10); len(got) != 3 {
		t.Fatalf("Pieces with duplicate position = %v", got)
	}
}

func TestIndexBalance(t *testing.T) {
	ix := &Index{}
	// Adversarial ascending insertion fills leaves from one end: each
	// split must leave both halves within bounds.
	const n = 1 << 12
	for i := 0; i < n; i++ {
		ix.Insert(int64(i), i)
		if err := ix.check(); err != nil {
			t.Fatalf("after inserting %d: %v", i, err)
		}
	}
	// Random deletions must merge every leaf that falls below leafCap/4.
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, i := range perm[:n/2] {
		if !ix.Delete(int64(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if err := ix.check(); err != nil {
			t.Fatalf("after deleting %d: %v", i, err)
		}
	}
	if ix.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", ix.Len(), n/2)
	}
}

// TestIndexRandomizedAgainstReference runs a seeded op stream against
// the sorted-slice model, alternating growing and draining phases so
// leaves split, merge and empty many times over.
func TestIndexRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m := &indexModel{ix: &Index{}}
	for step := 0; step < 20_000; step++ {
		op := rng.Intn(10)
		if step/2500%2 == 1 && op < 3 { // a draining phase
			op = 3
		}
		if op == 8 && rng.Intn(50) > 0 { // a rebuild re-deals the leaves: rarely
			op = 5
		}
		if err := m.step(op, rng.Int63n(300), rng.Intn(200)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestIndexString(t *testing.T) {
	ix := &Index{}
	ix.Insert(5, 2)
	ix.Insert(6, 4)
	if got := ix.String(); got != "index{<5@2 <6@4}" {
		t.Fatalf("String = %q", got)
	}
}

// indexModel drives an Index and a sorted slice of the same cuts through
// one op stream, comparing every answer, the changed flag and the leaf
// invariants after each step.
type indexModel struct {
	ix  *Index
	ref []Cut // ascending value order
}

// step applies op to the cut val: 0–2 insert at position arg, 3–4
// delete, 5 Find/Neighbours/bracket, 6 ascend and 7 descend (each stops
// after arg+1 cuts and moves every cut it visits by val%3), 8 rebuilds
// the index through IndexFromSorted, or with arg 255 resets it, 9 looks
// up arg%16+1 values val + j·(arg/16+1) in one findGroup.
func (m *indexModel) step(op int, val int64, arg int) error {
	search := func(val int64) (int, bool) {
		return slices.BinarySearchFunc(m.ref, val, func(c Cut, v int64) int { return cmp.Compare(c.Val, v) })
	}
	i, found := search(val)
	at := func(k int) (Cut, bool) { // the model's cut k, if any
		if k < 0 || k >= len(m.ref) {
			return Cut{}, false
		}
		return m.ref[k], true
	}
	m.ix.changed = false
	wantChanged := false
	switch op {
	case 0, 1, 2:
		m.ix.Insert(val, arg)
		if found {
			m.ref[i].Pos = arg
		} else {
			m.ref = slices.Insert(m.ref, i, Cut{Val: val, Pos: arg})
			wantChanged = true
		}
	case 3, 4:
		if got := m.ix.Delete(val); got != found {
			return fmt.Errorf("Delete(%d) = %v, want %v", val, got, found)
		}
		if found {
			m.ref = slices.Delete(m.ref, i, i+1)
			wantChanged = true
		}
	case 5:
		fl, ce := i-1, i // the model's floor and ceiling slots
		if found {
			fl, ce = i, i+1
		}
		if pos, ok := m.ix.Find(val); ok != found || found && pos != m.ref[i].Pos {
			return fmt.Errorf("Find(%d) = %d, %v", val, pos, ok)
		}
		wf, wfok := at(fl)
		wc, wcok := at(ce)
		if f, fok, c, cok := m.ix.Neighbours(val); f != wf || fok != wfok || c != wc || cok != wcok {
			return fmt.Errorf("Neighbours(%d) = %v, %v, %v, %v, want %v, %v, %v, %v", val, f, fok, c, cok, wf, wfok, wc, wcok)
		}
		below, belowOK, wp, wok := wf.Pos, wfok, wc.Pos, wcok
		if found {
			wp, wok = below, true
		}
		if b, bok, a, aok := m.ix.bracket(val); b != below || bok != belowOK || a != wp || aok != wok {
			return fmt.Errorf("bracket(%d) = %d, %v, %d, %v, want %d, %v, %d, %v", val, b, bok, a, aok, below, belowOK, wp, wok)
		}
	case 6, 7:
		walk, slot := m.ix.ascend, func(k int) int { return k }
		if op == 7 {
			walk, slot = m.ix.descend, func(k int) int { return len(m.ref) - 1 - k }
		}
		var err error
		k, delta := 0, int(val%3)
		walk(func(c Cut) (int, bool) {
			if k >= len(m.ref) || c != m.ref[slot(k)] {
				err = fmt.Errorf("walk %d visit %d: %+v", op, k, c)
				return c.Pos, false
			}
			m.ref[slot(k)].Pos += delta
			k++
			return c.Pos + delta, k <= arg
		})
		if want := min(len(m.ref), arg+1); err == nil && k != want {
			err = fmt.Errorf("walk %d visited %d cuts, want %d", op, k, want)
		}
		if err != nil {
			return err
		}
	case 8:
		if arg == 255 {
			m.ix.Reset()
			wantChanged, m.ref = len(m.ref) > 0, nil
			break
		}
		ix, err := IndexFromSorted(m.ix.Cuts())
		if err != nil {
			return err
		}
		m.ix = ix
	case 9:
		vals := make([]int64, arg%16+1)
		for j := range vals {
			vals[j] = val + int64(j*(arg/16+1))
		}
		pos := make([]int, len(vals))
		m.ix.findGroup(vals, pos)
		for j, v := range vals {
			want := -1
			if i, found := search(v); found {
				want = m.ref[i].Pos
			}
			if pos[j] != want {
				return fmt.Errorf("findGroup value %d (%d) = %d, want %d", j, v, pos[j], want)
			}
		}
	}
	if m.ix.changed != wantChanged {
		return fmt.Errorf("op %d on %d: changed = %v, want %v", op, val, m.ix.changed, wantChanged)
	}
	if m.ix.Len() != len(m.ref) || !slices.Equal(m.ix.Cuts(), m.ref) {
		return fmt.Errorf("op %d on %d: index holds %v, model %v", op, val, m.ix.Cuts(), m.ref)
	}
	return m.ix.check()
}

// FuzzIndex decodes three bytes per step: the op (its top bit ignored),
// the cut's value and the step's argument. The seeds under
// testdata/fuzz/FuzzIndex fill and drain many leaves.
func FuzzIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			return
		}
		m := &indexModel{ix: &Index{}}
		for i := 0; i+3 <= len(b); i += 3 {
			if err := m.step(int(b[i]&0x7f)%10, int64(b[i+1]), int(b[i+2])); err != nil {
				t.Fatalf("step %d: %v", i/3, err)
			}
		}
	})
}

// TestIndexBuildBudget holds the cracker index's bytes and build, reading
// no clock. 37 000 cuts inserted in random order — one shard of a
// converged 1M-row column — hold at most 48 live heap bytes a cut: 8 of
// leaf value and 16 of table slot, the rest the leaves' spare capacity and
// the table's empty slots. IndexFromSorted sizes its table once, so it
// allocates as many times for 1 000 cuts as for 37 000 — a table doubled
// up from its smallest size would allocate by the log of the count — and
// at most maxBuildAllocs times: the index, its leaves, its top values,
// its one slab of leaf values and its table.
func TestIndexBuildBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap bytes and allocation counts under the race detector are not the program's")
	}
	const cuts = 37_000
	rng := rand.New(rand.NewSource(1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ix := &Index{}
	for ix.Len() < cuts {
		ix.Insert(rng.Int63n(1<<40), ix.Len())
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perCut := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / cuts
	t.Logf("%d cuts inserted in random order: %.1f live heap bytes a cut, %d slots", cuts, perCut, len(ix.slots))
	if perCut > 48 {
		t.Errorf("%d cuts hold %.1f live heap bytes a cut, budget 48", cuts, perCut)
	}

	sorted := ix.Cuts()
	build := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := IndexFromSorted(sorted[:n]); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(1_000), build(cuts)
	t.Logf("IndexFromSorted allocates %.0f times for 1 000 cuts, %.0f for %d", small, large, cuts)
	if small != large {
		t.Errorf("IndexFromSorted allocates %.0f times for 1 000 cuts but %.0f for %d: the table is not sized once", small, large, cuts)
	}
	const maxBuildAllocs = 5
	if large > maxBuildAllocs {
		t.Errorf("IndexFromSorted allocates %.0f times for %d cuts, budget %d", large, cuts, maxBuildAllocs)
	}
}

// BenchmarkIndexFind probes four indexes of 37 k cuts each, built by
// inserts in random order, for registered cuts at random: a converged
// shard's c0 lookups, where every probe misses the cache. Find is one
// probe of the position table.
func BenchmarkIndexFind(b *testing.B) {
	benchLookup(b, func(ix *Index, v int64) bool {
		_, ok := ix.Find(v)
		return ok
	})
}

// BenchmarkIndexLeafSearch makes the same lookups through the ordered
// leaves: the binary search over the leaves' first keys and the one
// inside a leaf that Neighbours and Insert make, and that Find made
// before the position table.
func BenchmarkIndexLeafSearch(b *testing.B) {
	benchLookup(b, func(ix *Index, v int64) bool {
		li, j := ix.locate(v)
		return j > 0 && ix.leaves[li][j-1] == v
	})
}

func benchLookup(b *testing.B, lookup func(ix *Index, v int64) bool) {
	const cuts = 37_000
	rng := rand.New(rand.NewSource(1))
	var ixs [4]*Index
	var keys [4][]int64
	for k := range ixs {
		ixs[k] = &Index{}
		for ixs[k].Len() < cuts {
			v := rng.Int63n(1 << 40)
			if _, ok := ixs[k].Find(v); !ok {
				ixs[k].Insert(v, len(keys[k]))
				keys[k] = append(keys[k], v)
			}
		}
	}
	probes := make([]int, 1<<16)
	for i := range probes {
		probes[i] = rng.Intn(cuts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 3
		if !lookup(ixs[k], keys[k][probes[i&(len(probes)-1)]]) {
			b.Fatal("registered cut not found")
		}
	}
}
