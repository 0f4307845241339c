package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/strategy"
)

// The update-fold oracle: ripple ≡ rebuild ≡ brute force. One op stream
// drives three columns — fold pinned to ripple, pinned to rebuild, and
// left to the write count — beside a model indexed by OID. Every column carries two
// sideways payload vectors whose values are functions of the OID, and
// after every crack, fold, compaction and strategy flip each must
// still hold its function of the OID beside it. TestFoldOracle feeds the
// stream from a seeded generator, FuzzFold from the fuzzer's bytes.

// foldPays are the payload vectors every harness column carries: "f"
// from birth, "g" gathered a few ops in, through whatever permutation
// and pending queue the column has by then.
var foldPays = map[string]func(bat.OID) int64{
	"f": func(oid bat.OID) int64 { return int64(oid)*7 + 1 },
	"g": func(oid bat.OID) int64 { return -int64(oid) },
}

// foldStrategy builds the strategy `name` with a cut-off small enough
// that ddr advises cuts on columns this size.
func foldStrategy(name string) core.CrackStrategy {
	s, err := strategy.New(name, 13)
	if err != nil {
		panic(err)
	}
	if s.Name == "ddr" {
		s.MinPiece = 16
	}
	return s
}

// opSource hands out the bytes of an op stream; an exhausted stream
// reads as zeros and reports done.
type opSource struct {
	b []byte
	i int
}

func (s *opSource) done() bool { return s.i >= len(s.b) }

func (s *opSource) next() int {
	if s.done() {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// next2 is a 16-bit draw.
func (s *opSource) next2() int { return s.next()<<8 | s.next() }

type foldHarness struct {
	t    testing.TB
	cols [3]*core.Column                // ripple, rebuild, by cost
	pays map[string]func(bat.OID) int64 // the payloads attached so far
	// The model, indexed by OID (OIDs are dense): vals[oid] is the value
	// oid was inserted with, alive[oid] whether it is still live.
	vals  []int64
	alive []bool
	live  []bat.OID // the live OIDs, in insertion order (deterministic picks)
	dead  []bat.OID // OIDs deleted earlier
	next  bat.OID
	step  int

	// images is each column as its write-back takes describe it: a whole
	// take, then every later take folded on (checkImages).
	images [3]core.ColumnState
}

// The base column holds values in [0, domain); inserts also land below
// and above it, and selects reach past both ends.
const foldDomain = 1000

func newFoldHarness(t testing.TB, base []int64, stratName string) *foldHarness {
	h := &foldHarness{t: t, vals: slices.Clone(base), alive: make([]bool, len(base)), next: bat.OID(len(base)),
		pays: make(map[string]func(bat.OID) int64)}
	for i := range base {
		h.alive[i] = true
		h.live = append(h.live, bat.OID(i))
	}
	for i, fold := range []core.Option{core.WithFold(core.FoldRipple), core.WithFold(core.FoldRebuild), core.WithFold(core.FoldByCost)} {
		h.cols[i] = core.NewColumn(fmt.Sprintf("c%d", i), base, fold, core.WithStrategy(foldStrategy(stratName)))
		h.attach(h.cols[i], "f")
		h.images[i], _ = h.cols[i].TakeState(true)
	}
	return h
}

// checkImages takes every column's write-back marks and folds the take
// onto the column's image, which must then be the column: a site that
// moves data without marking it leaves a stale granule behind.
func (h *foldHarness) checkImages() {
	h.t.Helper()
	for i, c := range h.cols {
		st, changed := c.TakeState(false)
		switch {
		case st.Patch:
			if err := h.images[i].Fold(st); err != nil {
				h.failf("%s: %v", c.Name(), err)
			}
		case changed:
			h.images[i] = st
		}
		live, _ := c.TakeState(true) // the marks were just taken: this takes none
		if err := sameState(h.images[i], live); err != nil {
			h.failf("%s folded from its takes: %v", c.Name(), err)
		}
	}
}

// sameState compares two whole column states field by field (an empty
// vector equals a nil one).
func sameState(a, b core.ColumnState) error {
	switch {
	case a.Name != b.Name || a.NextOID != b.NextOID:
		return fmt.Errorf("header %q/%d, want %q/%d", a.Name, a.NextOID, b.Name, b.NextOID)
	case !slices.Equal(a.OIDs, b.OIDs):
		return fmt.Errorf("oids differ")
	case !slices.Equal(a.Cuts, b.Cuts):
		return fmt.Errorf("cuts %v, want %v", a.Cuts, b.Cuts)
	case !slices.Equal(a.Pending, b.Pending) || !slices.Equal(a.Deleted, b.Deleted):
		return fmt.Errorf("pending or deletes differ")
	case (a.Strategy == nil) != (b.Strategy == nil) || a.Strategy != nil && *a.Strategy != *b.Strategy:
		return fmt.Errorf("strategy %v, want %v", a.Strategy, b.Strategy)
	case !slices.Equal(a.Pays, b.Pays):
		return fmt.Errorf("payloads %v, want %v", a.Pays, b.Pays)
	}
	return nil
}

func (h *foldHarness) attach(c *core.Column, attr string) {
	h.t.Helper()
	if err := core.AttachPayloadFunc(c, attr, foldPays[attr]); err != nil {
		h.failf("attach %q to %s: %v", attr, c.Name(), err)
	}
	h.pays[attr] = foldPays[attr]
}

// checkPays holds every column's payload vectors against their functions
// of the OID.
func (h *foldHarness) checkPays(when string) {
	h.t.Helper()
	for _, c := range h.cols {
		if err := core.CheckPayloads(c, h.pays); err != nil {
			h.failf("%s %s: %v", c.Name(), when, err)
		}
	}
}

// model is the value of a live OID, and 0 for any other.
func (h *foldHarness) model(oid bat.OID) int64 {
	if int(oid) < len(h.alive) && h.alive[oid] {
		return h.vals[oid]
	}
	return 0
}

func (h *foldHarness) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", h.step, fmt.Sprintf(format, args...))
}

func (h *foldHarness) run(src *opSource) {
	// Every check is linear in the column; a stream that only grows it
	// would spend its time there, so it ends at a few thousand tuples.
	for h.step = 0; !src.done() && h.next < 6000; h.step++ {
		if h.step == 3 {
			for _, c := range h.cols {
				h.attach(c, "g")
			}
		}
		switch op := src.next() % 8; {
		case op < 2:
			h.insertBatch(src)
		case op == 2:
			h.delete(src)
		default:
			h.selectAndCheck(src)
		}
	}
	h.foldAndCheck()
}

// insertBatch queues one batch aimed below, inside or above the cut
// range, or exactly onto registered cut values (the two inclusivities of
// one value bracket an empty piece; a value equal to a cut must land on
// the side its inclusivity names).
func (h *foldHarness) insertBatch(src *opSource) {
	size := 1 + src.next()%40
	if src.next()%8 == 0 {
		size = 150 + src.next() // larger than most pieces, sometimes than the column
	}
	region := src.next() % 4
	cuts := h.cols[0].Index().Cuts()
	start, stride := src.next2(), 1+src.next() // the batch is start + i·stride, folded into its region
	for i := 0; i < size; i++ {
		at := start + i*stride
		var v int64
		switch {
		case region == 0:
			v = -1 - int64(at%100)
		case region == 1:
			v = foldDomain + int64(at%100)
		case region == 2 && len(cuts) > 0:
			v = cuts[at%len(cuts)].Val
		default:
			v = int64(at % foldDomain)
		}
		for _, c := range h.cols {
			if oid := core.InsertRow(c, v, h.pays); oid != h.next {
				h.failf("insert got oid %d, want %d", oid, h.next)
			}
		}
		h.vals, h.alive = append(h.vals, v), append(h.alive, true)
		h.live = append(h.live, h.next)
		h.next++
	}
}

// delete queues one delete: of a stored tuple, of an insert still
// pending, of an OID never handed out, or of one deleted before.
func (h *foldHarness) delete(src *opSource) {
	var oid bat.OID
	switch kind := src.next() % 4; {
	case kind == 0 && h.next > 0:
		oid = h.next - 1 // the latest insert: pending unless a select came since
	case kind == 1:
		oid = h.next + bat.OID(1+src.next())
	case kind == 2 && len(h.dead) > 0:
		oid = h.dead[src.next2()%len(h.dead)]
	case len(h.live) > 0:
		oid = h.live[src.next2()%len(h.live)]
	default:
		return
	}
	want := h.cols[0].Delete(oid)
	for _, c := range h.cols[1:] {
		if got := c.Delete(oid); got != want {
			h.failf("Delete(%d) = %v on %s, %v on %s", oid, got, c.Name(), want, h.cols[0].Name())
		}
	}
	if int(oid) < len(h.alive) && h.alive[oid] {
		if !want {
			h.failf("Delete(%d) of a live tuple refused", oid)
		}
		h.alive[oid] = false
		h.live = slices.DeleteFunc(h.live, func(o bat.OID) bool { return o == oid })
		h.dead = append(h.dead, oid)
	}
}

// foldAndCheck folds every column's pending updates without cracking (an
// unbounded count needs no cut) and checks what a fold must leave true.
// On the ripple column the walk's dry run is held against the writes the
// fold then performs.
func (h *foldHarness) foldAndCheck() {
	ripple := h.cols[0]
	dry := core.PendingDeletes(ripple) == 0
	var written, shifted int
	if dry {
		written, shifted = core.DryRunFold(ripple)
	}
	before := ripple.Stats()
	for _, c := range h.cols {
		if got := c.Count(math.MinInt64, math.MaxInt64, true, true); got != len(h.live) {
			h.failf("%s holds %d tuples, model %d", c.Name(), got, len(h.live))
		}
	}
	after := ripple.Stats()
	if after.RebuildFolds != 0 || after.Cracks != before.Cracks {
		h.failf("pinned ripple column rebuilt or cracked: %+v", after)
	}
	if dry && (after.TuplesMoved-before.TuplesMoved != int64(written) || after.CutsShifted-before.CutsShifted != int64(shifted)) {
		h.failf("dry run said %d writes, %d shifts; the fold did %d, %d", written, shifted,
			after.TuplesMoved-before.TuplesMoved, after.CutsShifted-before.CutsShifted)
	}
	h.checkPays("after fold")
	h.checkImages()
	for _, c := range h.cols {
		if err := c.Verify(); err != nil {
			h.failf("%s after fold: %v", c.Name(), err)
		}
		got := c.ByOID()
		if len(got) != len(h.live) {
			h.failf("%s ByOID has %d tuples, model %d", c.Name(), len(got), len(h.live))
		}
		for _, oid := range h.live {
			if gv, ok := got[oid]; !ok || gv != h.vals[oid] {
				h.failf("%s oid %d = %d (present %v), model %d", c.Name(), oid, gv, ok, h.vals[oid])
			}
		}
	}
}

func (h *foldHarness) selectAndCheck(src *opSource) {
	h.foldAndCheck()
	lo := int64(src.next2()%(foldDomain+240)) - 120
	hi := lo + int64(src.next()) // width 0: a point query, twin cuts when the value is absent
	if src.next()%16 == 0 {
		hi = lo + foldDomain // reaches past the top: parks a cut at the array end
	}
	incl := src.next()
	loIncl, hiIncl := incl&1 == 0, incl&2 == 0
	if incl>>4 == 0xF { // one select in sixteen runs under a freshly flipped strategy
		names := strategy.Names()
		name := names[int(incl>>2&3)%len(names)]
		for _, c := range h.cols {
			c.SwapStrategy(func(core.CrackStrategy) core.CrackStrategy { return foldStrategy(name) })
		}
		h.checkPays("after flip to " + name)
	}
	var want []int64
	for _, oid := range h.live {
		if v := h.vals[oid]; (v > lo || loIncl && v == lo) && (v < hi || hiIncl && v == hi) {
			want = append(want, v)
		}
	}
	slices.Sort(want)
	for _, c := range h.cols {
		vals, oids := c.SelectCopy(lo, hi, loIncl, hiIncl)
		for i, oid := range oids {
			if h.model(oid) != vals[i] {
				h.failf("%s returned oid %d with value %d, model %d", c.Name(), oid, vals[i], h.model(oid))
			}
		}
		slices.Sort(vals)
		if !slices.Equal(vals, want) {
			h.failf("%s select(%d,%d,%v,%v): %d tuples, brute force %d", c.Name(), lo, hi, loIncl, hiIncl, len(vals), len(want))
		}
		if err := c.Verify(); err != nil {
			h.failf("%s after select: %v", c.Name(), err)
		}
	}
	h.checkPays("after select")
}

func TestFoldOracle(t *testing.T) {
	for _, stratName := range strategy.Names() {
		t.Run(stratName+"/plain", func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ops := make([]byte, 1200)
				rng.Read(ops)
				newFoldHarness(t, randomBase(100+rng.Intn(400), seed), stratName).run(&opSource{b: ops})
			}
		})
	}
}

// FuzzFold: bytes → op stream, invariants of TestFoldOracle. The first
// byte picks only the crack strategy and the base size. The hand-built
// seeds (twin cuts, a batch larger than the column, every kind of
// delete, appends past a parked cut) are under testdata/fuzz/FuzzFold.
func FuzzFold(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	names := strategy.Names()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 4096 {
			return
		}
		base := randomBase(50+int(ops[0])*2, int64(ops[0]))
		newFoldHarness(t, base, names[int(ops[0])%len(names)]).run(&opSource{b: ops[1:]})
	})
}
