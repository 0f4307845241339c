package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// check asserts the layout invariants of the leaves under ix: no leaf is
// empty or over leafCap, every leaf but a lone one holds at least
// leafCap/4 cuts, each top key is its leaf's first cut, cuts ascend
// strictly across leaf boundaries, and size is the sum of the leaves. The
// position table must then hold exactly the leaves' keys, each reachable
// from its home slot, at the positions Cuts reports.
func (ix *Index) check() error {
	if len(ix.topV) != len(ix.leaves) || len(ix.topI) != len(ix.leaves) {
		return fmt.Errorf("%d leaves under %d/%d top keys", len(ix.leaves), len(ix.topV), len(ix.topI))
	}
	n, pv, pi := 0, int64(0), false // pv, pi: the cut before, across leaves
	for li, l := range ix.leaves {
		switch k := len(l.vals); {
		case len(l.incl) != k:
			return fmt.Errorf("leaf %d: vectors of %d/%d", li, k, len(l.incl))
		case k == 0 || k > leafCap:
			return fmt.Errorf("leaf %d holds %d cuts, want 1..%d", li, k, leafCap)
		case k < leafCap/4 && len(ix.leaves) > 1:
			return fmt.Errorf("leaf %d of %d holds %d cuts, want >= %d", li, len(ix.leaves), k, leafCap/4)
		case ix.topV[li] != l.vals[0] || ix.topI[li] != l.incl[0]:
			return fmt.Errorf("leaf %d: top key (%d, %v), first cut (%d, %v)", li, ix.topV[li], ix.topI[li], l.vals[0], l.incl[0])
		}
		for j := range l.vals {
			if n+j > 0 && cmpCut(pv, pi, l.vals[j], l.incl[j]) >= 0 {
				return fmt.Errorf("leaf %d slot %d: (%d, %v) after (%d, %v)", li, j, l.vals[j], l.incl[j], pv, pi)
			}
			pv, pi = l.vals[j], l.incl[j]
		}
		n += len(l.vals)
	}
	if n != ix.size {
		return fmt.Errorf("size %d, leaves hold %d", ix.size, n)
	}
	return ix.checkSlots()
}

// checkSlots asserts that the position table is a power of two of slots
// at most slotLoadNum/slotLoadDen full, holds Len() cuts, finds each one
// from its home slot, and holds each leaf key at the position Cuts
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
		if j, found := ix.probe(s.val, s.incl()); !found || j != i {
			return fmt.Errorf("slot %d: (%d, %v) probes to slot %d, found %v", i, s.val, s.incl(), j, found)
		}
	}
	if held != ix.size || held*slotLoadDen > k*slotLoadNum {
		return fmt.Errorf("table of %d slots holds %d cuts, Len %d", k, held, ix.size)
	}
	cuts, c := ix.Cuts(), 0
	for _, l := range ix.leaves {
		for j := range l.vals {
			i, found := ix.probe(l.vals[j], l.incl[j])
			if !found || ix.slots[i].pos() != cuts[c].Pos {
				return fmt.Errorf("leaf key (%d, %v), cut %+v: slot %d found %v, w %#x", l.vals[j], l.incl[j], cuts[c], i, found, ix.slots[i].w)
			}
			c++
		}
	}
	return nil
}

func TestIndexInsertFind(t *testing.T) {
	ix := &Index{}
	ix.Insert(10, false, 3)
	ix.Insert(10, true, 5)
	ix.Insert(20, false, 8)

	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	if pos, ok := ix.Find(10, false); !ok || pos != 3 {
		t.Fatalf("Find(10,false) = %d,%v", pos, ok)
	}
	if pos, ok := ix.Find(10, true); !ok || pos != 5 {
		t.Fatalf("Find(10,true) = %d,%v", pos, ok)
	}
	if _, ok := ix.Find(15, false); ok {
		t.Fatal("Find(15) should miss")
	}
	// Overwrite does not grow the index.
	ix.Insert(10, false, 3)
	if ix.Len() != 3 {
		t.Fatalf("Len after overwrite = %d, want 3", ix.Len())
	}
}

func TestIndexFloorCeil(t *testing.T) {
	ix := &Index{}
	ix.Insert(10, false, 3)
	ix.Insert(20, false, 8)
	ix.Insert(20, true, 9)

	// Floor of an existing key is the key itself.
	if v, incl, pos, ok := ix.Floor(20, false); !ok || v != 20 || incl || pos != 8 {
		t.Fatalf("Floor(20,false) = %d,%v,%d,%v", v, incl, pos, ok)
	}
	// Floor between keys.
	if v, _, pos, ok := ix.Floor(15, true); !ok || v != 10 || pos != 3 {
		t.Fatalf("Floor(15,true) = %d,%d,%v", v, pos, ok)
	}
	// (20,false) < (20,true): incl ordering.
	if v, incl, _, ok := ix.Floor(20, true); !ok || v != 20 || !incl {
		t.Fatalf("Floor(20,true) = %d,%v", v, incl)
	}
	// Nothing below the smallest key.
	if _, _, _, ok := ix.Floor(5, true); ok {
		t.Fatal("Floor(5) should miss")
	}
	// Ceil is strictly greater.
	if v, incl, pos, ok := ix.Ceil(10, false); !ok || v != 20 || incl || pos != 8 {
		t.Fatalf("Ceil(10,false) = %d,%v,%d,%v", v, incl, pos, ok)
	}
	if v, incl, _, ok := ix.Ceil(20, false); !ok || v != 20 || !incl {
		t.Fatalf("Ceil(20,false) = %d,%v", v, incl)
	}
	if _, _, _, ok := ix.Ceil(20, true); ok {
		t.Fatal("Ceil past largest key should miss")
	}
}

func TestIndexDelete(t *testing.T) {
	ix := &Index{}
	for i := 0; i < 20; i++ {
		ix.Insert(int64(i), false, i)
	}
	if !ix.Delete(7, false) {
		t.Fatal("Delete(7) failed")
	}
	if ix.Delete(7, false) {
		t.Fatal("double Delete(7) succeeded")
	}
	if _, ok := ix.Find(7, false); ok {
		t.Fatal("deleted key still found")
	}
	if ix.Len() != 19 {
		t.Fatalf("Len = %d, want 19", ix.Len())
	}
	// Remaining keys intact and ordered.
	cuts := ix.Cuts()
	if len(cuts) != 19 {
		t.Fatalf("Cuts = %d", len(cuts))
	}
	for i := 1; i < len(cuts); i++ {
		if cmpCut(cuts[i-1].Val, cuts[i-1].Incl, cuts[i].Val, cuts[i].Incl) >= 0 {
			t.Fatal("cuts out of order after delete")
		}
	}
}

func TestIndexPieces(t *testing.T) {
	ix := &Index{}
	if got := ix.Pieces(10); len(got) != 1 || got[0] != [2]int{0, 10} {
		t.Fatalf("empty index Pieces = %v", got)
	}
	ix.Insert(5, false, 3)
	ix.Insert(9, false, 7)
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
	ix.Insert(5, true, 3)
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
		ix.Insert(int64(i), false, i)
		if err := ix.check(); err != nil {
			t.Fatalf("after inserting %d: %v", i, err)
		}
	}
	// Random deletions must merge every leaf that falls below leafCap/4.
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, i := range perm[:n/2] {
		if !ix.Delete(int64(i), false) {
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
		op := rng.Intn(9)
		if step/2500%2 == 1 && op < 3 { // a draining phase
			op = 3
		}
		if op == 8 && rng.Intn(50) > 0 { // a rebuild re-deals the leaves: rarely
			op = 5
		}
		if err := m.step(op, rng.Int63n(300), rng.Intn(2) == 0, rng.Intn(200)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestIndexString(t *testing.T) {
	ix := &Index{}
	ix.Insert(5, false, 2)
	ix.Insert(5, true, 4)
	if got := ix.String(); got != "index{<5@2 <=5@4}" {
		t.Fatalf("String = %q", got)
	}
}

// indexModel drives an Index and a sorted slice of the same cuts through
// one op stream, comparing every answer, the changed flag and the leaf
// invariants after each step.
type indexModel struct {
	ix  *Index
	ref []Cut // ascending key order
}

// step applies op to the key (val, incl): 0–2 insert at position arg,
// 3–4 delete, 5 Find/Floor/Ceil/bracket, 6 ascend and 7 descend (each
// stops after arg+1 cuts and moves every cut it visits by val%3), 8
// rebuilds the index through IndexFromSorted, or with arg 255 resets it.
func (m *indexModel) step(op int, val int64, incl bool, arg int) error {
	i, found := slices.BinarySearchFunc(m.ref, Cut{Val: val, Incl: incl}, func(c, k Cut) int {
		return cmpCut(c.Val, c.Incl, k.Val, k.Incl)
	})
	at := func(k int) (int64, bool, int, bool) { // the model's cut k, if any
		if k < 0 || k >= len(m.ref) {
			return 0, false, 0, false
		}
		return m.ref[k].Val, m.ref[k].Incl, m.ref[k].Pos, true
	}
	m.ix.changed = false
	wantChanged := false
	switch op {
	case 0, 1, 2:
		m.ix.Insert(val, incl, arg)
		if found {
			m.ref[i].Pos = arg
		} else {
			m.ref = slices.Insert(m.ref, i, Cut{Val: val, Incl: incl, Pos: arg})
			wantChanged = true
		}
	case 3, 4:
		if got := m.ix.Delete(val, incl); got != found {
			return fmt.Errorf("Delete(%d, %v) = %v, want %v", val, incl, got, found)
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
		if pos, ok := m.ix.Find(val, incl); ok != found || found && pos != m.ref[i].Pos {
			return fmt.Errorf("Find(%d, %v) = %d, %v", val, incl, pos, ok)
		}
		wv, wi, wp, wok := at(fl)
		if v, in, p, ok := m.ix.Floor(val, incl); v != wv || in != wi || p != wp || ok != wok {
			return fmt.Errorf("Floor(%d, %v) = %d, %v, %d, %v, want %d, %v, %d, %v", val, incl, v, in, p, ok, wv, wi, wp, wok)
		}
		below, belowOK := wp, wok
		wv, wi, wp, wok = at(ce)
		if v, in, p, ok := m.ix.Ceil(val, incl); v != wv || in != wi || p != wp || ok != wok {
			return fmt.Errorf("Ceil(%d, %v) = %d, %v, %d, %v, want %d, %v, %d, %v", val, incl, v, in, p, ok, wv, wi, wp, wok)
		}
		if found {
			wp, wok = below, true
		}
		if b, bok, a, aok := m.ix.bracket(val, incl); b != below || bok != belowOK || a != wp || aok != wok {
			return fmt.Errorf("bracket(%d, %v) = %d, %v, %d, %v, want %d, %v, %d, %v", val, incl, b, bok, a, aok, below, belowOK, wp, wok)
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
	}
	if m.ix.changed != wantChanged {
		return fmt.Errorf("op %d on (%d, %v): changed = %v, want %v", op, val, incl, m.ix.changed, wantChanged)
	}
	if m.ix.Len() != len(m.ref) || !slices.Equal(m.ix.Cuts(), m.ref) {
		return fmt.Errorf("op %d on (%d, %v): index holds %v, model %v", op, val, incl, m.ix.Cuts(), m.ref)
	}
	return m.ix.check()
}

// FuzzIndex decodes three bytes per step: the op (its top bit is the
// key's incl), the key's value and the step's argument. The seeds under
// testdata/fuzz/FuzzIndex fill and drain many leaves.
func FuzzIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			return
		}
		m := &indexModel{ix: &Index{}}
		for i := 0; i+3 <= len(b); i += 3 {
			if err := m.step(int(b[i]&0x7f)%9, int64(b[i+1]), b[i]&0x80 != 0, int(b[i+2])); err != nil {
				t.Fatalf("step %d: %v", i/3, err)
			}
		}
	})
}

// TestIndexBuildBudget holds the cracker index's bytes and build, reading
// no clock. 37 000 cuts inserted in random order — one shard of a
// converged 1M-row column — hold at most 64 live heap bytes a cut: 9 of
// leaf key and 16 of table slot, the rest the leaves' spare capacity and
// the table's empty slots. IndexFromSorted sizes its table once, so it
// allocates as many times for 1 000 cuts as for 37 000; a table doubled
// up from its smallest size would allocate by the log of the count.
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
		ix.Insert(rng.Int63n(1<<40), rng.Intn(2) == 0, ix.Len())
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perCut := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / cuts
	t.Logf("%d cuts inserted in random order: %.1f live heap bytes a cut, %d slots", cuts, perCut, len(ix.slots))
	if perCut > 64 {
		t.Errorf("%d cuts hold %.1f live heap bytes a cut, budget 64", cuts, perCut)
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
}

// BenchmarkIndexFind probes four indexes of 37 k cuts each, built by
// inserts in random order, for registered cuts at random: a converged
// shard's c0 lookups, where every probe misses the cache. Find is one
// probe of the position table.
func BenchmarkIndexFind(b *testing.B) {
	benchLookup(b, func(ix *Index, v int64) bool {
		_, ok := ix.Find(v, false)
		return ok
	})
}

// BenchmarkIndexLeafSearch makes the same lookups through the ordered
// leaves: the binary search over the leaves' first keys and the one
// inside a leaf that Floor, Ceil and Insert make, and that Find made
// before the position table.
func BenchmarkIndexLeafSearch(b *testing.B) {
	benchLookup(b, func(ix *Index, v int64) bool {
		li, j := ix.locate(v, false)
		return j > 0 && ix.leaves[li].vals[j-1] == v
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
			if _, ok := ixs[k].Find(v, false); !ok {
				ixs[k].Insert(v, false, len(keys[k]))
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
