package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"crackdb"
	"crackdb/internal/durable"
)

// Durability for the sharded store — and, as a one-shard router, for a
// single store: this is the only level a WAL attaches at. A data
// directory holds a checkpoint chain and the log that extends it, all in
// one flat directory:
//
//	dir/ckpt-000007.json    element 7's manifest (here a base)
//	dir/ckpt-000007-0.crk   shard 0's image in element 7, one per carried shard
//	dir/ckpt-000008.json    element 8, a delta: images of the shards that
//	dir/ckpt-000008-3.crk   changed since the element before it
//	dir/wal.log             the mutation log
//
// Every element has a number, and numbers are never reused. Its manifest
// holds the WAL stamp, the routing state as of the element, and for each
// carried shard the size and CRC-32C of its image; renaming the manifest
// into place commits the element. The base is the element that carries
// every shard and follows nothing, so a full checkpoint is a chain of
// length zero. Each image names its predecessor by checksum
// (durable.Image.PrevSum), which crackdb.Open verifies: that is the
// chain's one link. Checkpoint writes one element under full mutation
// exclusion and rotates the log; boot takes the newest base and the
// contiguous deltas above it, opens each shard from the base plus exactly
// the elements that carry it, replays the log suffix, and deletes the
// rest. An element that fails verification refuses the boot — a
// half-trusted chain must never silently serve cold.
//
// Compaction folds the chain back into a base when it grows past
// deltaCompactEvery elements or past half the base's size: chains stay
// short, so boot and follower bootstrap never walk unbounded history.

const (
	elemPrefix    = "ckpt-"   // every chain file: ckpt-NNNNNN.json, ckpt-NNNNNN-K.crk
	dataWALName   = "wal.log" // the mutation log
	dataBootsName = "boots"   // boot counter (restarts_total = boots-1)

	manifestVersion = 3

	// deltaCompactEvery bounds the number of delta elements in a chain.
	deltaCompactEvery = 8
)

// elemManifest is the on-disk description of one chain element.
type elemManifest struct {
	Version int         `json:"version"`
	Seq     uint64      `json:"seq"`  // WAL stamp (rotation point)
	Base    bool        `json:"base"` // chain start: carries every shard
	Files   []shardFile `json:"files"`

	// Routing state as of the element; the chain tip's is authoritative.
	Shards int                `json:"shards"`
	Kind   Kind               `json:"kind"`
	Tables []routerTableEntry `json:"tables"`
}

// shardFile names one carried shard's image in an element.
type shardFile struct {
	Shard int    `json:"shard"`
	Size  int64  `json:"size"`
	Crc   uint32 `json:"crc"` // durable.SnapshotCRC of the file
}

type routerTableEntry struct {
	Name   string   `json:"name"`
	Key    string   `json:"key"`
	KeyIdx int      `json:"key_idx"`
	Cols   []string `json:"columns"`
	Seeded bool     `json:"seeded"`
	Part   PartSpec `json:"partition"`
}

// chainElem is one live element: its manifest, and the size and CRC-32C
// of the manifest file itself.
type chainElem struct {
	num  int
	m    elemManifest
	size int64
	crc  uint32
}

// bytes sums the element's shard images.
func (e chainElem) bytes() int64 {
	var n int64
	for _, f := range e.m.Files {
		n += f.Size
	}
	return n
}

func manifestName(num int) string { return fmt.Sprintf("%s%06d.json", elemPrefix, num) }
func shardFileName(num, shard int) string {
	return fmt.Sprintf("%s%06d-%d.crk", elemPrefix, num, shard)
}

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

// chainScan is what boot finds in a data dir.
type chainScan struct {
	elems   []chainElem // the newest base, then the deltas above it
	next    int         // above every number a chain file carries
	residue []string    // names no live element lists, deleted once the boot succeeds
	old     []string    // oldLayout names: refused without a chain, residue beside one
}

// oldLayout matches what a build from before the flat layout leaves in a
// data dir: its element directories store/ and delta-NNNNNN/, and the
// store.old and .saving-* traces of its directory swap.
var oldLayout = []string{"store", "store.old", "delta-*", ".saving-*"}

// oldLayoutBuild is the last build that upgrades such a data dir.
const oldLayoutBuild = "66b2ed8"

// scanChain reads the data dir's manifests: the newest base wins, and
// every element above it must be a delta, numbered without a gap.
// Everything else named ckpt-* — older elements, files no live manifest
// names, .tmp files — is residue. It deletes nothing: a boot that refuses
// leaves the directory as it found it.
func scanChain(dir string) (chainScan, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return chainScan{}, err
	}
	c := chainScan{next: 1}
	var names []string
	var manifests []int
	for _, ent := range entries {
		name := ent.Name()
		if slices.ContainsFunc(oldLayout, func(pat string) bool {
			ok, _ := filepath.Match(pat, name)
			return ok
		}) {
			c.old = append(c.old, name)
			continue
		}
		var num int
		if _, err := fmt.Sscanf(name, elemPrefix+"%d", &num); err != nil {
			continue // not a chain file
		}
		names = append(names, name)
		c.next = max(c.next, num+1)
		if manifestName(num) == name {
			manifests = append(manifests, num)
		}
	}
	slices.Sort(manifests)
	// Newest first, down to the first base.
	for i := len(manifests) - 1; i >= 0; i-- {
		e, err := readElem(dir, manifests[i])
		if err != nil {
			return chainScan{}, err
		}
		if len(c.elems) > 0 && e.num != c.elems[0].num-1 {
			return chainScan{}, fmt.Errorf("shard: delta chain broken: element %d is missing below element %d",
				c.elems[0].num-1, c.elems[0].num)
		}
		c.elems = append([]chainElem{e}, c.elems...)
		if e.m.Base {
			break
		}
	}
	if len(c.elems) > 0 && !c.elems[0].m.Base {
		return chainScan{}, fmt.Errorf("shard: delta chain present but no base image under %s — refusing to boot cold over existing checkpoints", dir)
	}
	live := make(map[string]bool)
	for _, e := range c.elems {
		live[manifestName(e.num)] = true
		for _, f := range e.m.Files {
			live[shardFileName(e.num, f.Shard)] = true
		}
	}
	for _, name := range names {
		if !live[name] {
			c.residue = append(c.residue, name)
		}
	}
	return c, nil
}

// readElem loads and checks element num's manifest.
func readElem(dir string, num int) (chainElem, error) {
	name := manifestName(num)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return chainElem{}, err
	}
	e := chainElem{num: num, size: int64(len(data)), crc: crc32.Checksum(data, durable.SnapshotCRC)}
	if err := json.Unmarshal(data, &e.m); err != nil {
		return chainElem{}, fmt.Errorf("shard: corrupt manifest %s: %w", name, err)
	}
	if e.m.Version != manifestVersion {
		return chainElem{}, fmt.Errorf("shard: unsupported manifest version %d in %s", e.m.Version, name)
	}
	for _, f := range e.m.Files {
		if f.Shard < 0 || f.Shard >= e.m.Shards {
			return chainElem{}, fmt.Errorf("shard: manifest %s lists shard %d of %d", name, f.Shard, e.m.Shards)
		}
	}
	return e, nil
}

// openShards builds a router from a chain tip's manifest — its routing
// state is authoritative — and opens each shard from the image files
// paths names for it, base first.
func openShards(m elemManifest, paths func(shard int) []string) (*Store, error) {
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
		p := paths(i)
		if len(p) == 0 {
			return nil, fmt.Errorf("shard: no chain element carries shard %d", i)
		}
		st, err := crackdb.Open(p[0], p[1:]...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = st
	}
	return s, nil
}

// openChain opens a store from a verified, non-empty chain.
func openChain(dir string, chain []chainElem) (*Store, error) {
	return openShards(chain[len(chain)-1].m, func(i int) []string {
		var paths []string
		for _, e := range chain {
			if slices.ContainsFunc(e.m.Files, func(f shardFile) bool { return f.Shard == i }) {
				paths = append(paths, filepath.Join(dir, shardFileName(e.num, i)))
			}
		}
		return paths
	})
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
// returned store is ready to serve and Checkpoint-able. A directory in
// the layout before the flat one (store/ and delta-NNNNNN/) with no
// chain beside it is refused untouched: this build does not read it.
func OpenDurable(dir string, opts Options) (*Store, BootInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, BootInfo{}, err
	}
	c, err := scanChain(dir)
	if err != nil {
		return nil, BootInfo{}, err
	}
	if len(c.elems) == 0 && len(c.old) > 0 {
		return nil, BootInfo{}, fmt.Errorf("shard: %s holds %s, the data-dir layout before ckpt-NNNNNN files (store/, delta-NNNNNN/), which this build does not read — boot it once with build %s, the last that upgrades it",
			dir, strings.Join(c.old, ", "), oldLayoutBuild)
	}
	var s *Store
	var info BootInfo
	if len(c.elems) == 0 {
		s = New(opts)
	} else {
		if s, err = openChain(dir, c.elems); err != nil {
			return nil, BootInfo{}, err
		}
		info = BootInfo{Recovered: true, AppliedSeq: c.elems[len(c.elems)-1].m.Seq, ChainDeltas: len(c.elems) - 1}
	}
	if err := s.attach(dir, c, &info); err != nil {
		return nil, BootInfo{}, err
	}
	for _, name := range append(c.residue, c.old...) {
		os.RemoveAll(filepath.Join(dir, name))
	}
	return s, info, nil
}

// attach replays the WAL records the chain does not cover, counting them
// in info, then attaches the log and the chain: from here on every
// mutation is logged and Checkpoint extends the chain.
func (s *Store) attach(dir string, c chainScan, info *BootInfo) error {
	wal, err := durable.Open(filepath.Join(dir, dataWALName), info.AppliedSeq,
		func(seq uint64, rec durable.Record) error {
			if seq < info.AppliedSeq {
				return nil // already inside the checkpoint
			}
			info.Replayed++
			return s.Apply(rec)
		})
	if err != nil {
		return err
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.wal = wal
	s.dataDir = dir
	s.boots = bumpBoots(filepath.Join(dir, dataBootsName))
	s.chain, s.next = c.elems, c.next
	// A number above the tip was taken by an element that never
	// committed: a delta there would leave a gap boot refuses.
	s.forceBase = len(c.elems) > 0 && c.next != c.elems[len(c.elems)-1].num+1
	return nil
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
		deltaBytes += e.bytes()
	}
	return len(s.chain)-1 >= deltaCompactEvery || deltaBytes >= s.chain[0].bytes()/2
}

// errNothingDirty aborts a delta element that would carry no shard and
// no new WAL stamp; Checkpoint reports it as nothing written.
var errNothingDirty = errors.New("shard: nothing changed since the last checkpoint")

// checkpointLocked writes one element — the base, carrying every shard,
// or a delta carrying the shards that changed since their last image —
// and rotates the WAL. Each shard image is written and fsynced under its
// final name, then the directory is fsynced; renaming the fsynced
// manifest into place commits the element. A base then retires the chain
// it supersedes: manifests first, so a crash leaves files no manifest
// names, which boot deletes. Caller holds walMu exclusively.
func (s *Store) checkpointLocked(base bool) error {
	seq, num := s.wal.Seq(), s.next
	elem := chainElem{num: num, m: s.manifestLocked(seq)}
	elem.m.Base = base
	// The number is spent once any file may carry it; a spent number that
	// never commits makes the next element a base.
	s.next, s.forceBase = num+1, true
	var commits []func()
	for i, st := range s.shards {
		commit, file, err := st.WriteImage(filepath.Join(s.dataDir, shardFileName(num, i)), !base)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if commit != nil {
			elem.m.Files = append(elem.m.Files, shardFile{Shard: i, Size: file.Size, Crc: file.CRC})
			commits = append(commits, commit)
		}
	}
	if !base && len(commits) == 0 && seq == s.wal.Status().BaseSeq {
		s.next, s.forceBase = num, false
		return errNothingDirty
	}
	data, err := json.Marshal(elem.m)
	if err != nil {
		return err
	}
	path := filepath.Join(s.dataDir, manifestName(num))
	if err := durable.SyncDir(s.dataDir); err != nil {
		return err
	}
	if err := durable.WriteFile(path+".tmp", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return err
	}
	if err := durable.Publish(path+".tmp", path); err != nil {
		return err
	}
	s.forceBase = false
	elem.size, elem.crc = int64(len(data)), crc32.Checksum(data, durable.SnapshotCRC)
	for _, commit := range commits {
		commit()
	}
	if base {
		for _, e := range s.chain {
			os.Remove(filepath.Join(s.dataDir, manifestName(e.num)))
		}
		for _, e := range s.chain {
			for _, f := range e.m.Files {
				os.Remove(filepath.Join(s.dataDir, shardFileName(e.num, f.Shard)))
			}
		}
		s.chain = nil
	}
	s.chain = append(s.chain, elem)
	return s.wal.Rotate(seq)
}

// InstallSnapshot makes a staged copy of a primary's checkpoint image
// the chain of dataDir, which no store may have open, by the
// checkpoint's own protocol. The staged files, already fsynced under
// their final names, are the files m lists. It refuses a manifest that
// names anything but chain files, then removes the local log and chain:
// the log first, then each element's manifest before its images, newest
// element first, so a crash part way leaves an older chain with no log,
// which boots at its own stamp. It moves the shard images in and fsyncs
// the directory, then publishes the manifests in number order, so a
// crash leaves a prefix of the new chain, or files boot deletes.
func InstallSnapshot(dataDir, staging string, m SnapshotManifest) error {
	if err := m.Check(); err != nil {
		return err
	}
	wal, err := filepath.Glob(filepath.Join(dataDir, dataWALName+"*"))
	if err != nil {
		return err
	}
	chain, err := filepath.Glob(filepath.Join(dataDir, elemPrefix+"*"))
	if err != nil {
		return err
	}
	// In reverse name order ckpt-000008.json precedes ckpt-000008-3.crk.
	slices.Reverse(chain)
	for _, path := range append(wal, chain...) {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	var manifests []string
	for _, f := range m.Files {
		if filepath.Ext(f.Path) == ".json" {
			manifests = append(manifests, f.Path)
		} else if err := os.Rename(filepath.Join(staging, f.Path), filepath.Join(dataDir, f.Path)); err != nil {
			return err
		}
	}
	if err := durable.SyncDir(dataDir); err != nil {
		return err
	}
	slices.Sort(manifests)
	for _, name := range manifests {
		if err := durable.Publish(filepath.Join(staging, name), filepath.Join(dataDir, name)); err != nil {
			return err
		}
	}
	return nil
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
