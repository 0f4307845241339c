package shard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
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
	Path string `json:"path"` // a data-dir name: ckpt-NNNNNN.json or ckpt-NNNNNN-K.crk
	Size int64  `json:"size"`
	Crc  uint32 `json:"crc"` // CRC-32C (durable.SnapshotCRC) of the file's contents
}

// SnapshotManifest describes the checkpoint image a follower bootstraps
// from: the WAL seq the image covers (== the live log's base, by the
// rotate-on-checkpoint invariant) plus the image's file list — every
// chain element's manifest and shard images. Each file carries its
// checksum, so a re-bootstrapping follower downloads only the files it
// does not already hold. A store that has never checkpointed reports Seq
// 0 and no files — the follower simply replays the whole log.
type SnapshotManifest struct {
	Seq   uint64         `json:"seq"`
	Files []SnapshotFile `json:"files"`
}

// Check refuses a manifest a follower must not stage: every path must be
// a chain-file name, flat in the data dir, and no size may be negative.
// It reports the first offending path.
func (m SnapshotManifest) Check() error {
	for _, f := range m.Files {
		if !chainFileName(f.Path) {
			return fmt.Errorf("shard: snapshot path %q is not a checkpoint file name", f.Path)
		}
		if f.Size < 0 {
			return fmt.Errorf("shard: snapshot path %q has size %d", f.Path, f.Size)
		}
	}
	return nil
}

// chainFileName reports whether name is one checkpointLocked writes: an
// element's manifest or one of its shard images.
func chainFileName(name string) bool {
	var num, k int
	if _, err := fmt.Sscanf(name, elemPrefix+"%d", &num); err != nil || num < 0 {
		return false
	}
	if name == manifestName(num) {
		return true
	}
	_, err := fmt.Sscanf(name, elemPrefix+"%d-%d.crk", &num, &k)
	return err == nil && k >= 0 && name == shardFileName(num, k)
}

// ReplManifest lists the checkpoint image — base plus delta chain — from
// the manifests in memory, reading no file, under the replication read
// lock: a concurrent Checkpoint cannot change the chain mid-listing, so
// the manifest always describes one consistent snapshot, stamped with the
// log base it equals.
func (s *Store) ReplManifest() (SnapshotManifest, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal == nil || s.dataDir == "" {
		return SnapshotManifest{}, fmt.Errorf("shard: store is not durable")
	}
	return SnapshotManifest{Seq: s.wal.Status().BaseSeq, Files: s.snapshotLocked()}, nil
}

// snapshotLocked lists the chain's files, sorted by name; empty before
// the first checkpoint. The caller holds walMu.
func (s *Store) snapshotLocked() []SnapshotFile {
	var files []SnapshotFile
	for _, e := range s.chain {
		files = append(files, SnapshotFile{Path: manifestName(e.num), Size: e.size, Crc: e.crc})
		for _, f := range e.m.Files {
			files = append(files, SnapshotFile{Path: shardFileName(e.num, f.Shard), Size: f.Size, Crc: f.Crc})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	return files
}

// ReplReadFile reads a chunk of one checkpoint-image file, which must be
// a file the current chain lists. seq fences the read against
// checkpoints: if the image has been superseded since the follower
// fetched its manifest (the live log's base moved), the read refuses
// instead of serving bytes from a different snapshot. A short (or empty)
// return near the end of the file is normal.
func (s *Store) ReplReadFile(seq uint64, name string, off int64, n int) ([]byte, error) {
	if n <= 0 || n > 4<<20 {
		return nil, fmt.Errorf("shard: bad chunk size %d", n)
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal == nil || s.dataDir == "" {
		return nil, fmt.Errorf("shard: store is not durable")
	}
	if base := s.wal.Status().BaseSeq; base != seq {
		return nil, fmt.Errorf("shard: snapshot superseded (image at seq %d, requested %d)", base, seq)
	}
	if !slices.ContainsFunc(s.snapshotLocked(), func(f SnapshotFile) bool { return f.Path == name }) {
		return nil, fmt.Errorf("shard: snapshot path %q is outside the checkpoint image (superseded, or never part of it)", name)
	}
	f, err := os.Open(filepath.Join(s.dataDir, name))
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
