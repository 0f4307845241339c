package crackdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/durable"
	"crackdb/internal/relation"
	"crackdb/internal/strategy"
)

// Store persistence. A store is saved as a chain of image directories,
// each holding one image file (internal/durable.Image: table manifest,
// crack configuration, crack state — cut sets, cracked vectors, pending
// updates, strategy RNG positions, payload vectors — tuner posture) plus
// one checksummed BAT file per column of every table whose data the
// element rewrites. A full image is the chain of length zero: the element
// that diffs against nothing, so it rewrites every table and carries
// every cracked column. A delta element carries only what moved since
// the image before it and names that image by checksum. One writer
// (WriteImage) produces both, one reader (Open) folds a chain back into
// a live store, and OpenCold is that reader ignoring the crack sections —
// the paper's prototype, whose cracker indexes "are not saved between
// sessions" (§5.2).
//
// Change detection is a saveMark: a per-table shape-and-generation
// record plus a per-column state fingerprint
// (core.Column.StateFingerprint), taken when an image is written and
// installed once the caller reports it landed (and after every Open). A
// table or column with no mark entry is dirty by definition, and every
// table-creation path bumps the table's generation (bumpTableGenLocked)
// — so create, drop+recreate (even into an identical shape and row
// count), and Materialize all land in the next delta.
//
// The store itself logs nothing: write-ahead logging, checkpoint stamps
// and crash recovery belong to internal/shard (OpenDurable), for one
// shard as for many.

// imageName is the image file inside every image directory, and the
// marker RecoverDirSwap looks for.
const imageName = "crackstate.crk"

// saveMark captures what the last saved image contained, in just enough
// detail to decide per column whether the live state still matches it.
// The zero mark matches nothing: diffing against it yields a full image.
type saveMark struct {
	sum    uint32 // the image file's trailer checksum (chain identity)
	config durable.StoreConfig
	tables map[string]tableMark
	cols   map[colKey]uint64 // crack-state fingerprints at save time
}

type tableMark struct {
	gen   uint64 // creation generation (bumpTableGenLocked) — object identity
	rows  int    // physical rows, tombstoned included
	tombs int    // tombstone count (monotone: equal count == equal set)
	cols  string // column names, joined — schema identity
}

type colKey struct{ table, attr string }

func joinCols(cols []string) string { return strings.Join(cols, "\x00") }

// bumpTableGenLocked stamps name with a fresh generation. Every path
// that installs a table object into s.tables must call it — create,
// tapestry load, Materialize, vertical partition/reunite, image apply —
// so shape-based dirtiness never mistakes a recreated table for the one
// the last save captured. The caller holds s.mu.
func (s *Store) bumpTableGenLocked(name string) {
	s.genSeq++
	s.tableGen[name] = s.genSeq
}

// configLocked materializes the store-wide crack configuration an image
// carries. The caller holds s.mu (read or write).
func (s *Store) configLocked() durable.StoreConfig {
	return durable.StoreConfig{
		StrategyName:   s.strategyName,
		StrategySeed:   s.strategySeed,
		MaxPieces:      s.maxPieces,
		SidewaysBudget: s.sideways.Budget(),
	}
}

// newMarkLocked describes the live store as the content of the image
// identified by sum. The caller holds s.mu.
func (s *Store) newMarkLocked(sum uint32) *saveMark {
	m := &saveMark{
		sum:    sum,
		config: s.configLocked(),
		tables: make(map[string]tableMark, len(s.tables)),
		cols:   make(map[colKey]uint64),
	}
	for name, t := range s.tables {
		tm := tableMark{gen: s.tableGen[name], rows: t.Len(), cols: joinCols(t.ColumnNames())}
		if ct, ok := s.cracked[name]; ok {
			tm.tombs = t.Len() - ct.LiveLen()
			for _, attr := range ct.CrackedColumns() {
				if c, ok := ct.Column(attr); ok {
					m.cols[colKey{name, attr}] = c.StateFingerprint()
				}
			}
		}
		m.tables[name] = tm
	}
	return m
}

// Save writes a full image of the store to dir, atomically replacing any
// previous image: the new one is built in a temp sibling, fsynced, and
// swapped in with renames, so a crash mid-save leaves the old image
// intact. The saved image becomes the base later delta elements diff
// against.
func (s *Store) Save(dir string) error {
	var commit func()
	err := durable.AtomicReplaceDir(dir, func(tmp string) error {
		var werr error
		commit, werr = s.WriteImage(tmp, false)
		return werr
	})
	if err == nil {
		commit()
	}
	return err
}

// WriteImage writes one image element into dir (created if missing,
// expected empty): a full image, or with delta set only what changed
// since the last committed image — which must exist. It neither syncs
// nor swaps; the caller owns atomicity (durable.AtomicReplaceDir) and
// calls commit once the element is in place, making it the image the
// next delta diffs against. Skipping commit after a failed swap keeps
// the previous image as that reference, which is what is still on disk.
// A delta of a store in which nothing persisted has changed —
// configuration, table set or shape, tombstones, any column's crack
// state (tuner posture, advisory warmth, is deliberately not counted) —
// writes nothing and returns a nil commit.
func (s *Store) WriteImage(dir string, delta bool) (commit func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	against := &saveMark{}
	if delta {
		if against = s.mark; against == nil {
			return nil, fmt.Errorf("crackdb: no base image to delta against (save a full image first)")
		}
	}
	img := &durable.Image{
		Base:    !delta,
		PrevSum: against.sum,
		Config:  s.configLocked(),
		Tuner:   s.exportTunerStates(),
	}
	// Tables and attributes go out sorted: two images of an unchanged
	// store are byte-identical, so a re-bootstrapping follower, which
	// reuses files by checksum, downloads nothing it already holds.
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	touched := 0 // tables with new data, new tombstones or a carried column
	for _, name := range names {
		t := s.tables[name]
		it := durable.ImageTable{Name: name, Cols: t.ColumnNames(), Rows: t.Len()}
		ct := s.cracked[name]
		if ct != nil {
			it.Deleted = ct.Tombstones()
		}
		// A cracked column cannot vanish from a table whose generation
		// held, so generation plus shape decide data dirtiness alone.
		tm, had := against.tables[name]
		it.DataDirty = !had || tm.gen != s.tableGen[name] ||
			tm.rows != it.Rows || tm.cols != joinCols(it.Cols)
		// New data or a new tombstone set carries every cracked column;
		// otherwise only the columns whose fingerprint moved. A column's
		// payload vectors ride in its record.
		carryAll := it.DataDirty || tm.tombs != len(it.Deleted)
		carried := carryAll
		if ct != nil {
			for _, attr := range ct.CrackedColumns() {
				c, ok := ct.Column(attr)
				if !ok {
					continue
				}
				prev, known := against.cols[colKey{name, attr}]
				if carryAll || !known || prev != c.StateFingerprint() {
					img.Columns = append(img.Columns, durable.ColumnSnapshot{
						Table: name, Attr: attr, State: c.ExportState(),
					})
					carried = true
				}
			}
		}
		if carried {
			touched++
		}
		img.Tables = append(img.Tables, it)
	}
	if delta && touched == 0 && len(names) == len(against.tables) && img.Config == against.config {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, it := range img.Tables {
		if !it.DataDirty {
			continue
		}
		for _, col := range it.Cols {
			b, err := s.tables[it.Name].Column(col)
			if err != nil {
				return nil, err
			}
			if err := b.Save(columnPath(dir, it.Name, col)); err != nil {
				return nil, fmt.Errorf("crackdb: save %s.%s: %w", it.Name, col, err)
			}
		}
	}
	sum, err := durable.WriteImage(filepath.Join(dir, imageName), img)
	if err != nil {
		return nil, err
	}
	mark := s.newMarkLocked(sum)
	return func() {
		s.mu.Lock()
		s.mark = mark
		s.mu.Unlock()
	}, nil
}

// Open loads a store from a full image directory plus, in order, the
// delta elements written on top of it, reattaching every column's cut
// set, cracked vectors, pending updates, strategy (with its RNG
// position) and payload vectors, and the tuner posture — the reopened
// store resumes at converged per-query latency. Every link is checked:
// the first element must be a base, each later one must name its
// predecessor's checksum; a broken, missing or corrupt link refuses the
// whole open rather than silently serving a cold or half-applied store.
func Open(base string, deltas ...string) (*Store, error) {
	return openChain(false, append([]string{base}, deltas...))
}

// OpenCold loads the tables (and configuration) of a full image and
// ignores its crack state: every column starts uncracked, the way the
// paper's prototype restarts (§5.2).
func OpenCold(dir string) (*Store, error) {
	return openChain(true, []string{dir})
}

func openChain(cold bool, dirs []string) (*Store, error) {
	s := New()
	var prev uint32
	for i, dir := range dirs {
		durable.RecoverDirSwap(dir, imageName)
		img, sum, err := durable.ReadImage(filepath.Join(dir, imageName))
		if err != nil {
			return nil, fmt.Errorf("crackdb: open image %s: %w", dir, err)
		}
		switch {
		case img.Base != (i == 0):
			return nil, fmt.Errorf("crackdb: image chain broken at %s: element %d of the chain has base=%v",
				dir, i, img.Base)
		case i > 0 && img.PrevSum != prev:
			return nil, fmt.Errorf("crackdb: image chain broken at %s: element links predecessor %08x, chain has %08x",
				dir, img.PrevSum, prev)
		}
		if cold {
			img.Columns, img.Tuner = nil, nil
		}
		if err := s.applyImage(dir, img); err != nil {
			return nil, err
		}
		prev = sum
	}
	if !cold {
		// The reopened state matches the on-disk chain exactly, so its tip
		// can anchor the next delta without another full save.
		s.mark = s.newMarkLocked(prev)
	}
	return s, nil
}

// applyImage folds one verified element into the store: drops tables
// absent from the element's manifest, swaps in rewritten base data,
// reconciles tombstones, and replaces the crack state of every column the
// element carries, payload vectors included. A base element does all of
// that to an empty store.
func (s *Store) applyImage(dir string, img *durable.Image) error {
	// Strategy config first: SetCrackStrategy validates the name and
	// takes s.mu itself.
	if name := img.Config.StrategyName; name != "" {
		if err := s.SetCrackStrategy(name, img.Config.StrategySeed); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxPieces = img.Config.MaxPieces
	s.sideways.SetBudget(img.Config.SidewaysBudget)

	inImage := make(map[string]bool, len(img.Tables))
	for _, it := range img.Tables {
		inImage[it.Name] = true
	}
	for name := range s.tables {
		if !inImage[name] {
			s.dropTableLocked(name)
		}
	}
	for _, it := range img.Tables {
		live, exists := s.tables[it.Name]
		if it.DataDirty {
			cols := make([]relation.Column, len(it.Cols))
			for i, col := range it.Cols {
				b, err := bat.Load(it.Name+"_"+col, columnPath(dir, it.Name, col))
				if err != nil {
					return fmt.Errorf("crackdb: load %s.%s: %w", it.Name, col, err)
				}
				if b.Len() != it.Rows {
					return fmt.Errorf("crackdb: %s.%s has %d rows, image manifest says %d",
						it.Name, col, b.Len(), it.Rows)
				}
				cols[i] = relation.Column{Name: col, Data: b}
			}
			t, err := relation.FromColumns(it.Name, cols...)
			if err != nil {
				return err
			}
			if exists {
				s.dropTableLocked(it.Name)
			}
			s.tables[it.Name] = t
			s.bumpTableGenLocked(it.Name)
			if len(it.Deleted) > 0 {
				// Tombstones force the cracked wrapper into existence now:
				// columns restored (or lazily created) later must inherit
				// the set at birth, and RestoreTombstones refuses once any
				// exist.
				if err := s.rewrapLocked(it.Name, t, it.Deleted); err != nil {
					return err
				}
			}
			continue
		}
		if !exists {
			return fmt.Errorf("crackdb: image %s references table %q missing from the chain so far", dir, it.Name)
		}
		if live.Len() != it.Rows || joinCols(live.ColumnNames()) != joinCols(it.Cols) {
			return fmt.Errorf("crackdb: image %s disagrees with table %q shape — chain corrupt", dir, it.Name)
		}
		var cur []bat.OID
		if ct, ok := s.cracked[it.Name]; ok {
			cur = ct.Tombstones()
		}
		if len(cur) != len(it.Deleted) { // monotone: equal count == equal set
			// Every cracked column of the table rides in img.Columns (a
			// delete forwards to all of them, so their fingerprints all
			// moved): rebuild the wrapper around the new tombstone set and
			// let the column loop below repopulate it.
			s.sideways.DropTable(it.Name)
			if err := s.rewrapLocked(it.Name, live, it.Deleted); err != nil {
				return err
			}
		}
	}
	withPays := make(map[string]*core.CrackedTable)
	for _, cs := range img.Columns {
		t, ok := s.tables[cs.Table]
		if !ok {
			return fmt.Errorf("crackdb: crack state for unknown table %q", cs.Table)
		}
		ct, ok := s.cracked[cs.Table]
		if !ok {
			ct = s.newCrackedTableLocked(cs.Table, t)
			s.cracked[cs.Table] = ct
		}
		// Each column record carries its own strategy state, and
		// baseColumnOptions deliberately omits the store default — so a
		// column the tuner flipped to standard reopens as standard.
		opts := s.baseColumnOptions()
		if cs.State.Strategy != nil {
			st, err := strategy.Restore(*cs.State.Strategy)
			if err != nil {
				return fmt.Errorf("crackdb: restore %s.%s: %w", cs.Table, cs.Attr, err)
			}
			opts = append(opts, core.WithStrategy(st))
		}
		col, err := core.ColumnFromState(cs.State, opts...)
		if err != nil {
			return fmt.Errorf("crackdb: restore %s.%s: %w", cs.Table, cs.Attr, err)
		}
		if err := ct.ReplaceColumn(cs.Attr, col); err != nil {
			return fmt.Errorf("crackdb: restore %s.%s: %w", cs.Table, cs.Attr, err)
		}
		if len(cs.State.Pays) > 0 {
			withPays[cs.Table] = ct
		}
	}
	// A replaced column took its payload vectors with it and its successor
	// brought its own: the budget takes them over.
	s.sideways.Adopt(withPays)
	// Tuner posture is a full copy per element (the latest wins) and
	// parks in pendingTuner until EnableAutotune adopts it — the flag is
	// a runtime choice, not part of the image.
	s.pendingTuner = img.Tuner
	return nil
}

// rewrapLocked replaces a table's cracked wrapper with an empty one
// carrying the given tombstone set. The caller holds s.mu.
func (s *Store) rewrapLocked(name string, t *relation.Table, deleted []bat.OID) error {
	ct := s.newCrackedTableLocked(name, t)
	if err := ct.RestoreTombstones(deleted); err != nil {
		return fmt.Errorf("crackdb: restore %s: %w", name, err)
	}
	s.cracked[name] = ct
	return nil
}

func columnPath(dir, table, col string) string {
	return filepath.Join(dir, table+"."+col+".bat")
}
