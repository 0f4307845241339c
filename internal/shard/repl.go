package shard

import (
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Replication surface of a durable sharded store. The WAL already is the
// replication stream — an append-only, checksummed, sequence-numbered
// record of every logical mutation, logged at the router before routing
// — so a primary only needs to expose two things: the log itself (WAL():
// committed positions, the commit signal, committed-record reads from any
// position) and the checkpoint image a new follower bootstraps from
// (ReplManifest/ReplReadFile). Everything here is pull-based: the
// follower drives, the primary never pushes, and the existing framed
// request/response protocol carries it all (internal/server's /repl*
// metas).

// ApplyBarrier returns once every mutation in flight at the call has
// fully applied. A record's seq is assigned when it is logged, before
// its in-memory application finishes, and every logged mutator holds
// walMu shared across both steps — so "next seq reached X" alone does
// not mean record X-1 is queryable yet. Taking the lock exclusively
// drains those holders; /replwait uses this so a fence never releases
// a reader into a half-applied batch.
func (s *Store) ApplyBarrier() {
	s.walMu.Lock()
	//lint:ignore SA2001 the empty critical section IS the barrier
	s.walMu.Unlock()
}

// SnapshotFile is one file of the checkpoint image.
type SnapshotFile struct {
	Path string `json:"path"` // data-dir relative ("store/..." or "delta-NNNNNN/...")
	Size int64  `json:"size"`
	Crc  uint32 `json:"crc"` // CRC-32C (SnapshotCRC) of the file's contents
}

// SnapshotCRC is the polynomial behind SnapshotFile.Crc: Castagnoli,
// deliberately not IEEE. BAT and image files end in their own IEEE
// CRC-32, and the IEEE CRC of such a file is the same constant residue
// whatever it holds — as a file identity it would let a follower keep a
// stale same-sized file.
var SnapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// SnapshotManifest describes the checkpoint image a follower bootstraps
// from: the WAL seq the image covers (== the live log's base, by the
// rotate-on-checkpoint invariant) plus the image's file list — the base
// image and, under differential checkpoints, every delta chain element
// on top of it. Each file carries its checksum, so a re-bootstrapping
// follower downloads only the files it does not already hold. A store
// that has never checkpointed reports Seq 0 and no files — the follower
// simply replays the whole log.
type SnapshotManifest struct {
	Seq   uint64         `json:"seq"`
	Files []SnapshotFile `json:"files"`
}

// ReplManifest walks the checkpoint image — base plus delta chain —
// under the replication read lock, so a concurrent Checkpoint cannot
// swap the image mid-listing: the manifest always describes one
// consistent snapshot, stamped with the log base it equals.
func (s *Store) ReplManifest() (SnapshotManifest, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal == nil || s.dataDir == "" {
		return SnapshotManifest{}, fmt.Errorf("shard: store is not durable")
	}
	m := SnapshotManifest{Seq: s.wal.Status().BaseSeq}
	for _, e := range s.chain { // empty before the first checkpoint: no image
		root := filepath.Join(s.dataDir, e.name)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			m.Files = append(m.Files, SnapshotFile{
				Path: e.name + "/" + filepath.ToSlash(rel),
				Size: info.Size(),
				Crc:  crc32.Checksum(data, SnapshotCRC),
			})
			return nil
		})
		if err != nil {
			return SnapshotManifest{}, err
		}
	}
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].Path < m.Files[j].Path })
	return m, nil
}

// ReplReadFile reads a chunk of one checkpoint-image file. seq fences
// the read against checkpoints: if the image has been superseded since
// the follower fetched its manifest (the live log's base moved), the
// read refuses instead of serving bytes from a different snapshot. A
// short (or empty) return near the end of the file is normal.
func (s *Store) ReplReadFile(seq uint64, rel string, off int64, n int) ([]byte, error) {
	if n <= 0 || n > 4<<20 {
		return nil, fmt.Errorf("shard: bad chunk size %d", n)
	}
	clean := filepath.Clean(filepath.FromSlash(rel))
	if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return nil, fmt.Errorf("shard: bad snapshot path %q", rel)
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal == nil || s.dataDir == "" {
		return nil, fmt.Errorf("shard: store is not durable")
	}
	if base := s.wal.Status().BaseSeq; base != seq {
		return nil, fmt.Errorf("shard: snapshot superseded (image at seq %d, requested %d)", base, seq)
	}
	// Manifest paths are data-dir relative, and only chain elements are
	// ever served: "store/..." or "delta-NNNNNN/...".
	first, _, _ := strings.Cut(clean, string(filepath.Separator))
	if first != dataStoreDir && !strings.HasPrefix(first, deltaDirPrefix) {
		return nil, fmt.Errorf("shard: snapshot path %q is outside the checkpoint image (want store/... or delta-NNNNNN/...)", rel)
	}
	f, err := os.Open(filepath.Join(s.dataDir, clean))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	read, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:read], nil
}

// Options returns the store's sharding configuration — what a follower
// mirrors so the logical WAL records route identically on its side.
func (s *Store) Options() Options {
	return s.opts
}
