package crackdb

import (
	"fmt"
	"os"
	"slices"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/durable"
	"crackdb/internal/relation"
	"crackdb/internal/strategy"
)

// Store persistence. A store is saved as a chain of image files, each
// one internal/durable.Image: table manifest and the rows it appends,
// crack state — OID orders, cut keys, pending updates, strategy RNG
// positions, payload names; the rows give the rest. No process posture:
// the strategy new columns crack under, the piece bound, the sideways
// budget and the tuner are the opening process's, set after the open. A full image is the chain of length zero:
// the element that diffs against nothing, so it writes every table and
// every cracked column whole. A delta element carries only what moved
// since the image before it and names that image by checksum: the rows
// appended to each table, and per column the OIDs of the granules it
// wrote (core.Granule) — or the whole column once half of it moved. One writer (WriteImage) produces
// both, one reader (Open) folds a chain back into a live store, and
// OpenCold is that reader ignoring the crack sections — the paper's
// prototype, whose cracker indexes "are not saved between sessions"
// (§5.2).
//
// Change detection has one detector per kind of state. A column marks
// what it writes (core.Column.TakeState takes the marks); a table's
// generation, row count and tombstone count at the last committed image
// live in the saveMark. Every table enters the store through
// installLocked, which stamps it with a fresh generation, so create,
// drop+recreate (even into an identical shape and row count), and
// Materialize rewrite the table in the next element.
//
// The store itself logs nothing: write-ahead logging, checkpoint stamps
// and crash recovery belong to internal/shard (OpenDurable), for one
// shard as for many.

// saveMark captures what the last committed image holds of each table.
// The zero mark holds nothing: diffing against it yields a full image.
type saveMark struct {
	sum    uint32 // the image file's trailer checksum (chain identity)
	tables map[string]tableMark
}

type tableMark struct {
	gen   uint64 // creation generation (installLocked) — object identity
	rows  int    // physical rows, tombstoned included
	tombs int    // tombstone count (monotone: equal count == equal set)
}

// newMarkLocked describes the live store as the content of the image
// identified by sum. The caller holds s.mu.
func (s *Store) newMarkLocked(sum uint32) *saveMark {
	m := &saveMark{sum: sum, tables: make(map[string]tableMark, len(s.tables))}
	for name, t := range s.tables {
		rows := t.Base().Len()
		m.tables[name] = tableMark{gen: t.gen, rows: rows, tombs: rows - t.LiveLen()}
	}
	return m
}

// Save writes a full image of the store to the file path, atomically
// replacing any previous one: the image is written and fsynced under a
// temp name, renamed over path, and the directory fsynced, so a crash
// mid-save leaves the old image intact. The saved image becomes the base
// later delta elements diff against.
func (s *Store) Save(path string) error {
	tmp := path + ".tmp"
	commit, _, err := s.WriteImage(tmp, false)
	if err != nil {
		return err
	}
	if err := durable.Publish(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	commit()
	return nil
}

// WriteImage writes one image element to the file path and fsyncs it: a
// full image, or with delta set only what changed since the last
// committed image — which must exist. It reports the file it wrote; the
// caller owns atomicity (a rename that commits it) and calls commit once
// the element is in place, making it the image the next delta diffs
// against. Until then no delta can be anchored: an element that never
// commits leaves the store without a base, so the next delta is refused
// and the caller writes a full image, which is all that is sure to
// supersede whatever landed. A delta of a store in which nothing
// persisted has changed — table set, rows, tombstones, any column's
// crack state — writes nothing and returns a nil commit.
func (s *Store) WriteImage(path string, delta bool) (commit func(), file durable.ImageFile, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	against := &saveMark{}
	if delta {
		if against = s.mark; against == nil {
			return nil, file, fmt.Errorf("crackdb: no base image to delta against (save a full image first)")
		}
	}
	img := &durable.Image{Base: !delta, PrevSum: against.sum}
	// Tables and attributes go out sorted: two images of an unchanged
	// store are byte-identical, so a re-bootstrapping follower, which
	// reuses files by checksum, downloads nothing it already holds.
	names := s.namesLocked()
	changed := !delta || len(names) != len(against.tables)
	for _, name := range names {
		t := s.tables[name]
		it := durable.ImageTable{Name: name, Cols: t.Base().ColumnNames(), Rows: t.Base().Len(), Deleted: t.Tombstones()}
		// A table the last image holds under the same generation only
		// grew: the element appends its new rows. Any other is rewritten,
		// with every cracked column whole.
		tm, had := against.tables[name]
		if had && tm.gen == t.gen {
			it.From = tm.rows
		}
		changed = changed || !had || tm.gen != t.gen || tm.rows != it.Rows || tm.tombs != len(it.Deleted)
		if it.From < it.Rows {
			for _, col := range it.Cols {
				it.Vals = append(it.Vals, t.Base().MustColumn(col).Ints()[it.From:it.Rows])
			}
		}
		for _, attr := range t.CrackedColumns() {
			c, ok := t.Column(attr)
			if !ok {
				continue
			}
			st, moved := c.TakeState(it.From == 0)
			if moved || it.From == 0 {
				img.Columns = append(img.Columns, durable.ColumnSnapshot{Table: name, Attr: attr, State: st})
			}
			changed = changed || moved
		}
		img.Tables = append(img.Tables, it)
	}
	if !changed {
		return nil, file, nil
	}
	s.mark = nil // in flight: see the doc comment
	if file, err = durable.WriteImage(path, img); err != nil {
		return nil, file, err
	}
	mark := s.newMarkLocked(file.Sum)
	return func() {
		s.mu.Lock()
		s.mark = mark
		s.mu.Unlock()
	}, file, nil
}

// Open loads a store from a full image file plus, in order, the delta
// elements written on top of it, rebuilding every cracked column from
// its OID order and cut keys against the loaded rows (a column the rows
// contradict refuses the open), with its pending updates, strategy
// (with its RNG position) and payload vectors — the reopened store
// resumes at converged per-query latency. The store is otherwise in
// New's posture: a caller that wants another strategy, piece bound,
// sideways budget or the tuner sets it after the open. Every link is checked:
// the first element must be a base, each later one must name its
// predecessor's checksum; a broken, missing or corrupt link refuses the
// whole open rather than silently serving a cold or half-applied store.
func Open(base string, deltas ...string) (*Store, error) {
	return openChain(false, append([]string{base}, deltas...))
}

// OpenCold loads the tables of a full image file and ignores its crack
// state: every column starts uncracked, the way the paper's prototype
// restarts (§5.2), in New's posture.
func OpenCold(path string) (*Store, error) {
	return openChain(true, []string{path})
}

func openChain(cold bool, paths []string) (*Store, error) {
	s := New()
	r := make(restoring)
	var prev uint32
	for i, path := range paths {
		img, sum, err := durable.ReadImage(path)
		if err != nil {
			return nil, fmt.Errorf("crackdb: open image %s: %w", path, err)
		}
		switch {
		case img.Base != (i == 0):
			return nil, fmt.Errorf("crackdb: image chain broken at %s: element %d of the chain has base=%v",
				path, i, img.Base)
		case i > 0 && img.PrevSum != prev:
			return nil, fmt.Errorf("crackdb: image chain broken at %s: element links predecessor %08x, chain has %08x",
				path, img.PrevSum, prev)
		}
		if cold {
			img.Columns = nil
		}
		if err := s.applyImage(path, img, r); err != nil {
			return nil, err
		}
		prev = sum
	}
	s.mu.Lock()
	err := s.restoreLocked(r)
	if err == nil && !cold {
		// The reopened state matches the on-disk chain exactly, so its tip
		// can anchor the next delta without another full save.
		s.mark = s.newMarkLocked(prev)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// The budget takes the restored payload vectors over.
	s.sideways.Adopt()
	return s, nil
}

// restoring is what the chain's elements have said so far about each
// column's crack state (table → attr → state), every later patch folded
// on. The columns are built once, after the last element (restoreLocked).
type restoring map[string]map[string]*core.ColumnState

// applyImage folds one verified element, read from path, into the
// store: drops tables absent from the element's manifest, loads
// rewritten tables, appends the rows of grown ones, tombstones what the
// element lists deleted, and records its column records — a whole record
// replaces the column's state, a patch folds onto it. A base element
// does all of that to an empty store.
func (s *Store) applyImage(path string, img *durable.Image, r restoring) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	inImage := make(map[string]bool, len(img.Tables))
	for _, it := range img.Tables {
		inImage[it.Name] = true
	}
	for name := range s.tables {
		if !inImage[name] {
			delete(s.tables, name)
			delete(r, name)
		}
	}
	for _, it := range img.Tables {
		live, exists := s.tables[it.Name]
		switch {
		case it.From == 0:
			if err := s.loadTableLocked(it); err != nil {
				return err
			}
			delete(r, it.Name) // a rewritten table's columns come whole
		case !exists:
			return fmt.Errorf("crackdb: image %s references table %q missing from the chain so far", path, it.Name)
		case live.Base().Len() != it.From || !slices.Equal(live.Base().ColumnNames(), it.Cols):
			return fmt.Errorf("crackdb: image %s disagrees with table %q shape — chain corrupt", path, it.Name)
		default:
			// No wrapper has a column before restoreLocked, so the rows go
			// straight onto the base.
			for i, vals := range it.Vals {
				live.Base().MustColumn(it.Cols[i]).AppendInts(vals...)
			}
		}
		// An element lists a table's whole tombstone set, and tombstones
		// only accrue: each set covers what earlier elements listed.
		if err := s.tables[it.Name].RestoreTombstones(it.Deleted); err != nil {
			return fmt.Errorf("crackdb: restore %s: %w", it.Name, err)
		}
	}
	for i := range img.Columns {
		cs := &img.Columns[i]
		if _, ok := s.tables[cs.Table]; !ok {
			return fmt.Errorf("crackdb: crack state for unknown table %q", cs.Table)
		}
		st, ok := r[cs.Table][cs.Attr]
		switch {
		case !cs.State.Patch:
			if r[cs.Table] == nil {
				r[cs.Table] = make(map[string]*core.ColumnState)
			}
			r[cs.Table][cs.Attr] = &cs.State
		case !ok:
			return fmt.Errorf("crackdb: image %s patches %s.%s, which the chain has not restored", path, cs.Table, cs.Attr)
		default:
			if err := st.Fold(cs.State); err != nil {
				return fmt.Errorf("crackdb: restore %s.%s: %w", cs.Table, cs.Attr, err)
			}
		}
	}
	return nil
}

// loadTableLocked installs a table from the element's copy of all its
// rows, replacing any table of that name. The caller holds s.mu.
func (s *Store) loadTableLocked(it durable.ImageTable) error {
	cols := make([]relation.Column, len(it.Cols))
	for i, col := range it.Cols {
		var vals []int64
		if it.Rows > 0 {
			vals = it.Vals[i]
		}
		cols[i] = relation.Column{Name: col, Data: bat.FromInts(it.Name+"_"+col, vals)}
	}
	t, err := relation.FromColumns(it.Name, cols...)
	if err != nil {
		return err
	}
	delete(s.tables, it.Name)
	return s.installLocked(it.Name, t)
}

// restoreLocked builds each column the chain left a state for from its
// table's rows (ColumnFromState), payload vectors included, into the
// table's wrapper, whose tombstones are already in place. The caller
// holds s.mu.
func (s *Store) restoreLocked(r restoring) error {
	for name, cols := range r {
		t := s.tables[name]
		for attr, st := range cols {
			// Each column record carries its own strategy state, and
			// baseColumnOptions deliberately omits the store default — so a
			// column the tuner flipped to standard reopens as standard.
			opts := s.baseColumnOptions()
			if st.Strategy != nil {
				strat, err := strategy.Restore(*st.Strategy)
				if err != nil {
					return fmt.Errorf("crackdb: restore %s.%s: %w", name, attr, err)
				}
				opts = append(opts, core.WithStrategy(strat))
			}
			col, err := t.ColumnFromState(attr, *st, opts...)
			if err == nil {
				err = t.ReplaceColumn(attr, col)
			}
			if err != nil {
				return fmt.Errorf("crackdb: restore %s.%s: %w", name, attr, err)
			}
		}
	}
	return nil
}
