package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"crackdb"
	"crackdb/internal/durable"
)

// Durability for the sharded store — and, as a one-shard router, for a
// single store: this is the only level a WAL attaches at. A data
// directory holds a checkpoint chain and the log that extends it:
//
//	dir/store/          base element: every shard's full image
//	dir/delta-000001/   delta element: images of the shards dirty since
//	dir/delta-000002/   the element before it, nothing for the rest
//	dir/wal.log         the mutation log
//
// Every element is one directory with the same layout: shard.json (the
// element manifest: WAL stamp, routing state as of the element, the
// shards it carries, and — unless it is the base — the CRC-32 of its
// predecessor's manifest) next to one shard-K/ crackdb image per carried
// shard. The base is the element that carries every shard and follows
// nothing, so a full checkpoint is a chain of length zero. Checkpoint
// writes one element under full mutation exclusion, swaps it in with a
// single atomic directory replace, and rotates the log; boot resolves the
// chain (superseded elements deleted, links verified end to end), opens
// each shard from the base plus exactly the elements that carry it, and
// replays the log suffix. An element that fails verification refuses the
// boot — a half-trusted chain must never silently serve cold.
//
// Compaction folds the chain back into a base when it grows past
// deltaCompactEvery elements or past half the base's size: chains stay
// short, so boot and follower bootstrap never walk unbounded history.

const (
	dataStoreDir   = "store"      // the base element
	deltaDirPrefix = "delta-"     // delta elements: delta-NNNNNN
	manifestName   = "shard.json" // element manifest, and the dir-swap marker
	dataWALName    = "wal.log"    // the mutation log
	dataBootsName  = "boots"      // boot counter (restarts_total = boots-1)

	manifestVersion = 2

	// deltaCompactEvery bounds the number of delta elements in a chain.
	deltaCompactEvery = 8
)

// elemManifest is the on-disk description of one chain element.
type elemManifest struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`      // WAL stamp (rotation point)
	Base    bool   `json:"base"`     // chain start: carries every shard
	PrevSum uint32 `json:"prev_sum"` // CRC-32 of the predecessor's manifest
	Dirty   []int  `json:"dirty"`    // shards with a shard-K/ subdir

	// Routing state as of the element; the chain tip's is authoritative.
	Shards int                `json:"shards"`
	Kind   Kind               `json:"kind"`
	Tables []routerTableEntry `json:"tables"`
}

type routerTableEntry struct {
	Name   string   `json:"name"`
	Key    string   `json:"key"`
	KeyIdx int      `json:"key_idx"`
	Cols   []string `json:"columns"`
	Seeded bool     `json:"seeded"`
	Part   PartSpec `json:"partition"`
}

// chainElem is one resolved on-disk element.
type chainElem struct {
	name  string // directory name under the data dir ("store", "delta-000001")
	ord   int    // 0 for the base
	sum   uint32 // CRC-32 of this element's manifest
	bytes int64  // total size of the element directory
	m     elemManifest
}

func deltaDirName(ord int) string { return fmt.Sprintf("%s%06d", deltaDirPrefix, ord) }
func shardDirName(i int) string   { return fmt.Sprintf("shard-%d", i) }

// logRecord appends a mutation to the attached WAL, if any. Callers hold
// walMu for reading and must log before applying.
func (s *Store) logRecord(rec durable.Record) error {
	if s.wal == nil {
		return nil
	}
	if _, err := s.wal.Append(rec); err != nil {
		return fmt.Errorf("shard: wal append: %w", err)
	}
	return nil
}

// manifestLocked describes the router as it stands, stamped with the
// given WAL position. The caller holds walMu.
func (s *Store) manifestLocked(seq uint64) elemManifest {
	m := elemManifest{
		Version: manifestVersion,
		Seq:     seq,
		Shards:  len(s.shards),
		Kind:    s.opts.Kind,
	}
	s.mu.RLock()
	for name, tm := range s.tables {
		m.Tables = append(m.Tables, routerTableEntry{
			Name:   name,
			Key:    tm.key,
			KeyIdx: tm.keyIdx,
			Cols:   append([]string(nil), tm.cols...),
			Seeded: tm.seeded,
			Part:   tm.part.spec(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(m.Tables, func(a, b int) bool { return m.Tables[a].Name < m.Tables[b].Name })
	return m
}

// readElem loads one element directory's manifest. A directory without
// one reports os.ErrNotExist.
func readElem(dataDir, name string, ord int) (chainElem, error) {
	dir := filepath.Join(dataDir, name)
	durable.RecoverDirSwap(dir, manifestName)
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return chainElem{}, err
	}
	e := chainElem{name: name, ord: ord, sum: crc32.ChecksumIEEE(data), bytes: dirSize(dir)}
	if err := json.Unmarshal(data, &e.m); err != nil {
		return chainElem{}, fmt.Errorf("shard: corrupt manifest in %s: %w", name, err)
	}
	if e.m.Version != manifestVersion {
		return chainElem{}, fmt.Errorf("shard: unsupported image version %d in %s — re-save with a ≤PR 11 build", e.m.Version, name)
	}
	if e.m.Base != (ord == 0) {
		return chainElem{}, fmt.Errorf("shard: delta chain broken: %s has base=%v", name, e.m.Base)
	}
	return e, nil
}

// resolveChain reads the base and every delta element under the data
// dir, deletes the elements a newer base superseded, and verifies the
// checksum links end to end. Called at boot, before any store state
// exists; an empty result is a directory that never checkpointed.
//
// Supersession cannot be decided by seq alone: a live element written
// after crack-only changes carries the base's own stamp (no WAL record
// advanced the seq), and so does residue from a full checkpoint that
// crashed between the base swap and the chain cleanup. An element
// strictly older than the base is always residue; one at the base's
// stamp is residue exactly when it does not link into the chain growing
// out of the base's checksum.
func resolveChain(dir string) ([]chainElem, error) {
	var chain []chainElem
	base, err := readElem(dir, dataStoreDir, 0)
	switch {
	case err == nil:
		chain = append(chain, base)
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, deltaDirPrefix+"*"))
	if err != nil {
		return nil, err
	}
	var deltas []chainElem
	for _, m := range matches {
		name := filepath.Base(m)
		var ord int
		if _, err := fmt.Sscanf(name, deltaDirPrefix+"%d", &ord); err != nil || ord < 1 || deltaDirName(ord) != name {
			continue // .old residue, tmp dirs, foreign names
		}
		e, err := readElem(dir, name, ord)
		if errors.Is(err, fs.ErrNotExist) {
			// A directory without its manifest cannot be a completed
			// element (the swap is atomic): writer residue, remove.
			os.RemoveAll(m)
			continue
		}
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, e)
	}
	if len(deltas) > 0 && len(chain) == 0 {
		return nil, fmt.Errorf("shard: delta chain present but no base image under %s — refusing to boot cold over existing checkpoints", dir)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].ord < deltas[j].ord })
	for _, e := range deltas {
		tip := chain[len(chain)-1]
		if e.m.Seq < base.m.Seq || (e.m.Seq == base.m.Seq && e.m.PrevSum != tip.sum) {
			// A newer base covers this element: every live element was
			// written at or after the base's stamp (the base's checkpoint
			// rotated the WAL to it) and links into the chain anchored at
			// the base's checksum. Anything else is residue from a crash
			// between the base swap and the chain cleanup.
			os.RemoveAll(filepath.Join(dir, e.name))
			continue
		}
		if e.m.PrevSum != tip.sum {
			return nil, fmt.Errorf("shard: delta chain broken: %s links predecessor %08x, but %s is %08x",
				e.name, e.m.PrevSum, tip.name, tip.sum)
		}
		chain = append(chain, e)
	}
	return chain, nil
}

// openChain builds a store from a verified, non-empty chain: the tip's
// manifest is authoritative for routing, and each shard opens its base
// image plus exactly the elements that carry it.
func openChain(dir string, chain []chainElem) (*Store, error) {
	m := chain[len(chain)-1].m
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: manifest with %d shards", m.Shards)
	}
	s := &Store{
		opts:   Options{Shards: m.Shards, Kind: m.Kind},
		shards: make([]*crackdb.Store, m.Shards),
		tables: make(map[string]*tableMeta, len(m.Tables)),
	}
	for _, te := range m.Tables {
		part, err := partFromSpec(te.Part)
		if err != nil {
			return nil, fmt.Errorf("shard: table %q: %w", te.Name, err)
		}
		if te.Part.Shards != m.Shards {
			return nil, fmt.Errorf("shard: table %q partitioned over %d shards, router has %d",
				te.Name, te.Part.Shards, m.Shards)
		}
		if te.KeyIdx < 0 || te.KeyIdx >= len(te.Cols) || te.Cols[te.KeyIdx] != te.Key {
			return nil, fmt.Errorf("shard: table %q key %q does not match column %d",
				te.Name, te.Key, te.KeyIdx)
		}
		s.tables[te.Name] = &tableMeta{
			cols:   te.Cols,
			key:    te.Key,
			keyIdx: te.KeyIdx,
			part:   part,
			seeded: te.Seeded,
		}
	}
	for i := range s.shards {
		var dirs []string
		for _, e := range chain {
			if slices.Contains(e.m.Dirty, i) {
				dirs = append(dirs, filepath.Join(dir, e.name, shardDirName(i)))
			}
		}
		if len(dirs) == 0 {
			return nil, fmt.Errorf("shard: no chain element carries shard %d", i)
		}
		st, err := crackdb.Open(dirs[0], dirs[1:]...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = st
	}
	return s, nil
}

// BootInfo describes what OpenDurable recovered.
type BootInfo struct {
	Recovered   bool   // a checkpoint was found and loaded
	AppliedSeq  uint64 // WAL seq the chain tip covered
	Replayed    int    // WAL records replayed on top of it
	ChainDeltas int    // delta elements applied over the base image
}

// OpenDurable boots a sharded store from a data directory: the verified
// checkpoint chain (when one exists) is opened with every shard's crack
// state, the WAL's uncovered suffix is replayed, and the log is attached
// so every further mutation is WAL-first. A missing directory is a cold
// boot: a fresh store under opts with an empty log. Either way the
// returned store is ready to serve and Checkpoint-able.
func OpenDurable(dir string, opts Options) (*Store, BootInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, BootInfo{}, err
	}
	chain, err := resolveChain(dir)
	if err != nil {
		return nil, BootInfo{}, err
	}
	var s *Store
	var info BootInfo
	if len(chain) == 0 {
		s = New(opts)
	} else {
		if s, err = openChain(dir, chain); err != nil {
			return nil, BootInfo{}, err
		}
		info = BootInfo{Recovered: true, AppliedSeq: chain[len(chain)-1].m.Seq, ChainDeltas: len(chain) - 1}
	}
	wal, err := durable.Open(filepath.Join(dir, dataWALName), info.AppliedSeq,
		func(seq uint64, rec durable.Record) error {
			if seq < info.AppliedSeq {
				return nil // already inside the checkpoint
			}
			info.Replayed++
			return s.Apply(rec)
		})
	if err != nil {
		return nil, BootInfo{}, err
	}
	s.walMu.Lock()
	s.wal = wal
	s.dataDir = dir
	s.boots = bumpBoots(filepath.Join(dir, dataBootsName))
	s.chain = chain
	s.walMu.Unlock()
	return s, info, nil
}

// bumpBoots increments the data directory's boot counter and returns
// the new value (1 on the first boot). The counter feeds the obs
// layer's restarts_total, marking the discontinuity after which every
// in-memory work counter restarted at zero. Best-effort: an unreadable
// or unwritable counter degrades to reporting this as the first boot,
// never to a failed open.
func bumpBoots(path string) int64 {
	var n int64
	if data, err := os.ReadFile(path); err == nil {
		fmt.Sscanf(string(data), "%d", &n)
	}
	n++
	os.WriteFile(path, []byte(fmt.Sprintf("%d\n", n)), 0o644)
	return n
}

// Apply replays one WAL record against the router — the inverse of the
// logging in the mutating methods. It routes through the public
// mutators, so its logging behaviour follows the WAL attachment: during
// boot replay the WAL is not yet attached and nothing is re-logged,
// while on a follower (WAL attached) every applied record re-logs
// exactly one local record — the follower's log mirrors the primary's
// seq for seq, which is what makes the local log frontier the replayed
// position after a crash.
func (s *Store) Apply(rec durable.Record) error {
	switch rec.Kind {
	case durable.KindCreate:
		if rec.Part == "" {
			return s.CreateTable(rec.Table, rec.Cols...)
		}
		kind, err := ParseKind(rec.Part)
		if err != nil {
			return err
		}
		return s.createTableKeyed(rec.Table, rec.Key, kind, rec.Cols...)
	case durable.KindInsert:
		return s.InsertRows(rec.Table, rec.Rows)
	case durable.KindDrop:
		return s.DropTable(rec.Table)
	case durable.KindTapestry:
		return s.LoadTapestry(rec.Table, rec.N, rec.Alpha, rec.Seed)
	case durable.KindStrategy:
		if rec.Shard < 0 {
			return s.SetCrackStrategy(rec.Name, rec.Seed)
		}
		return s.SetShardCrackStrategy(rec.Shard, rec.Name, rec.Seed)
	case durable.KindDelete:
		conds := make([]crackdb.Cond, len(rec.Conds))
		for i, c := range rec.Conds {
			conds[i] = crackdb.Cond{Col: c.Col, Op: c.Op, Val: c.Val}
		}
		_, err := s.Delete(rec.Table, conds...)
		return err
	default:
		return fmt.Errorf("shard: cannot apply WAL record kind %v", rec.Kind)
	}
}

// SetCheckpointDelta does nothing: every bare Checkpoint already takes
// the chain path. It stays only for callers built against the old
// switch.
func (s *Store) SetCheckpointDelta(bool) {}

// Checkpoint writes one chain element into the data directory and
// rotates the WAL, under full mutation exclusion: no insert can slip
// between the image and the log cut, so nothing acked is ever lost and
// nothing is replayed twice. Queries keep running throughout — they
// reorganize crack state, which the image captures per column atomically
// and which is re-derivable anyway.
//
// Without full it appends a delta element carrying only the shards that
// changed. It writes a full image instead when there is no base yet, when
// the chain has outgrown compactionDueLocked's bounds, or after a failed
// checkpoint (whose partial effects only a fresh base is sure to
// supersede). It returns what it wrote: "full", "delta", or "" when
// nothing changed since the last checkpoint — then no element is written
// and the log is not rotated.
func (s *Store) Checkpoint(full bool) (string, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil || s.dataDir == "" {
		return "", fmt.Errorf("shard: store is not durable (no data directory)")
	}
	if o := s.obsv.Load(); o != nil {
		t0 := time.Now()
		defer func() { o.checkpointNS.Observe(time.Since(t0).Nanoseconds()) }()
	}
	full = full || s.forceBase || len(s.chain) == 0 || s.compactionDueLocked()
	switch err := s.checkpointLocked(full); {
	case errors.Is(err, errNothingDirty):
		return "", nil
	case err != nil:
		return "", err
	case full:
		return "full", nil
	}
	return "delta", nil
}

// compactionDueLocked reports whether the chain has outgrown its bounds:
// deltaCompactEvery elements, or half the base's bytes.
func (s *Store) compactionDueLocked() bool {
	var deltaBytes int64
	for _, e := range s.chain[1:] {
		deltaBytes += e.bytes
	}
	return len(s.chain)-1 >= deltaCompactEvery ||
		(s.chain[0].bytes > 0 && deltaBytes >= s.chain[0].bytes/2)
}

// errNothingDirty aborts a delta element that would carry no shard and
// no new WAL stamp; Checkpoint reports it as nothing written.
var errNothingDirty = errors.New("shard: nothing changed since the last checkpoint")

// checkpointLocked writes one element — the base, carrying every shard,
// or a delta carrying the shards that changed since their last image —
// with a single atomic directory replace, retires the chain a new base
// supersedes, and rotates the WAL. Caller holds walMu exclusively.
func (s *Store) checkpointLocked(base bool) error {
	seq := s.wal.Seq()
	elem := chainElem{name: dataStoreDir, m: s.manifestLocked(seq)}
	elem.m.Base = base
	if !base {
		tip := s.chain[len(s.chain)-1]
		elem.ord = tip.ord + 1
		elem.name = deltaDirName(elem.ord)
		elem.m.PrevSum = tip.sum
	}
	dir := filepath.Join(s.dataDir, elem.name)
	var commits []func()
	err := durable.AtomicReplaceDir(dir, func(tmp string) error {
		for i, st := range s.shards {
			commit, err := st.WriteImage(filepath.Join(tmp, shardDirName(i)), !base)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if commit != nil {
				elem.m.Dirty = append(elem.m.Dirty, i)
				commits = append(commits, commit)
			}
		}
		if !base && len(commits) == 0 && seq == s.wal.Status().BaseSeq {
			return errNothingDirty
		}
		data, err := json.MarshalIndent(elem.m, "", "  ")
		if err != nil {
			return err
		}
		elem.sum = crc32.ChecksumIEEE(data)
		return os.WriteFile(filepath.Join(tmp, manifestName), data, 0o644)
	})
	if err != nil {
		if !errors.Is(err, errNothingDirty) {
			// The swap may have failed after the element reached its final
			// name; only a fresh base is sure to supersede whatever landed.
			s.forceBase = true
		}
		return err
	}
	for _, commit := range commits {
		commit()
	}
	elem.bytes = dirSize(dir)
	if base {
		// The new base covers every element; remove them before rotating
		// so a crash leaves either chain or base authoritative, never a
		// base with unlinked newer elements. A crash before the removals
		// leaves superseded elements (older stamps, or unlinked at the
		// base's stamp), which boot's resolveChain deletes.
		for _, e := range s.chain[min(1, len(s.chain)):] {
			os.RemoveAll(filepath.Join(s.dataDir, e.name))
		}
		s.chain = nil
		s.forceBase = false
	}
	s.chain = append(s.chain, elem)
	return s.wal.Rotate(seq)
}

// WAL returns the attached log — status, replication reads and the
// prune floor are its own methods — or nil on a volatile store (and
// after CloseWAL).
func (s *Store) WAL() *durable.WAL {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	return s.wal
}

// CloseWAL drains and closes the attached log (clean shutdown).
func (s *Store) CloseWAL() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// dirSize sums the file sizes under root (best-effort; 0 on error).
func dirSize(root string) int64 {
	var total int64
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
