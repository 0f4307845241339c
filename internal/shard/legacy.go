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
)

// Data dirs written before the one-file-per-shard layout keep each chain
// element in a directory: store/ for the base and delta-NNNNNN/ for the
// deltas, each holding shard.json (manifest version 2) and one shard-K/
// directory per carried shard with crackstate.crk and the BAT files that
// durable.ReadImage loads beside it. The first boot of this build
// upgrades such a dir (upgradeLegacy) and never writes that layout
// again; this file goes once no such data dir needs reading.

// legacyManifest is a version-2 shard.json: the chain was linked by the
// CRC-32 of each predecessor's manifest, and dirty listed the shards with
// a shard-K/ subdirectory.
type legacyManifest struct {
	elemManifest
	PrevSum uint32 `json:"prev_sum"`
	Dirty   []int  `json:"dirty"`
}

type legacyElem struct {
	name string // "store", "delta-000001"
	sum  uint32 // CRC-32 of the manifest
	m    legacyManifest
}

// legacyNames lists what an older build leaves in a data dir: the
// element directories, and the .old and .saving-* siblings of its
// directory swap.
func legacyNames(dir string) ([]string, error) {
	var names []string
	for _, pat := range []string{"store", "store.old", "delta-*", ".saving-*"} {
		m, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		for _, p := range m {
			names = append(names, filepath.Base(p))
		}
	}
	return names, nil
}

// upgradeLegacy boots a data dir in the old layout: it resolves the old
// chain, opens the shards from it, replays the WAL, writes a base in the
// new layout, and only then deletes the old directories. A crash before
// the base commits leaves the old layout to boot again; after it, the new
// layout wins and the old directories are residue.
func upgradeLegacy(dir string, opts Options, c chainScan, legacy []string) (*Store, BootInfo, error) {
	for _, name := range legacy {
		if filepath.Ext(name) == ".old" {
			return nil, BootInfo{}, fmt.Errorf("shard: %s holds %s, the trace of a directory swap an older build did not finish — boot the directory once with that build", dir, name)
		}
	}
	chain, err := resolveLegacyChain(dir)
	if err != nil {
		return nil, BootInfo{}, err
	}
	s := New(opts)
	var info BootInfo
	if len(chain) > 0 {
		s, err = openShards(chain[len(chain)-1].m.elemManifest, func(i int) []string {
			var paths []string
			for _, e := range chain {
				if slices.Contains(e.m.Dirty, i) {
					paths = append(paths, filepath.Join(dir, e.name, fmt.Sprintf("shard-%d", i), "crackstate.crk"))
				}
			}
			return paths
		})
		if err != nil {
			return nil, BootInfo{}, err
		}
		info = BootInfo{Recovered: true, AppliedSeq: chain[len(chain)-1].m.Seq, ChainDeltas: len(chain) - 1}
	}
	if err := s.attach(dir, c, &info); err != nil {
		return nil, BootInfo{}, err
	}
	if _, err := s.Checkpoint(true); err != nil {
		s.CloseWAL()
		return nil, BootInfo{}, fmt.Errorf("shard: upgrading %s: %w", dir, err)
	}
	for _, name := range append(c.residue, legacy...) {
		os.RemoveAll(filepath.Join(dir, name))
	}
	return s, info, nil
}

// resolveLegacyChain reads the old base and delta directories and
// verifies the manifest links end to end, skipping the elements a newer
// base superseded.
//
// Supersession cannot be decided by seq alone: a live element written
// after crack-only changes carries the base's own stamp (no WAL record
// advanced the seq), and so does residue from a full checkpoint that
// crashed between the base swap and the chain cleanup. An element
// strictly older than the base is always residue; one at the base's
// stamp is residue exactly when it does not link into the chain growing
// out of the base's checksum.
func resolveLegacyChain(dir string) ([]legacyElem, error) {
	var chain []legacyElem
	base, err := readLegacyElem(dir, "store", true)
	switch {
	case err == nil:
		chain = append(chain, base)
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "delta-*"))
	if err != nil {
		return nil, err
	}
	var deltas []legacyElem
	for _, m := range matches {
		name := filepath.Base(m)
		var ord int
		if _, err := fmt.Sscanf(name, "delta-%d", &ord); err != nil || fmt.Sprintf("delta-%06d", ord) != name {
			continue // tmp dirs, foreign names
		}
		e, err := readLegacyElem(dir, name, false)
		if errors.Is(err, fs.ErrNotExist) {
			continue // no manifest: writer residue
		}
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, e)
	}
	if len(deltas) > 0 && len(chain) == 0 {
		return nil, fmt.Errorf("shard: delta chain present but no base image under %s — refusing to boot cold over existing checkpoints", dir)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].name < deltas[j].name })
	for _, e := range deltas {
		tip := chain[len(chain)-1]
		if e.m.Seq < base.m.Seq || (e.m.Seq == base.m.Seq && e.m.PrevSum != tip.sum) {
			continue // superseded by the base
		}
		if e.m.PrevSum != tip.sum {
			return nil, fmt.Errorf("shard: delta chain broken: %s links predecessor %08x, but %s is %08x",
				e.name, e.m.PrevSum, tip.name, tip.sum)
		}
		chain = append(chain, e)
	}
	return chain, nil
}

func readLegacyElem(dir, name string, base bool) (legacyElem, error) {
	data, err := os.ReadFile(filepath.Join(dir, name, "shard.json"))
	if err != nil {
		return legacyElem{}, err
	}
	e := legacyElem{name: name, sum: crc32.ChecksumIEEE(data)}
	if err := json.Unmarshal(data, &e.m); err != nil {
		return legacyElem{}, fmt.Errorf("shard: corrupt manifest in %s: %w", name, err)
	}
	if e.m.Version != 2 {
		return legacyElem{}, fmt.Errorf("shard: unsupported manifest version %d in %s", e.m.Version, name)
	}
	if e.m.Base != base {
		return legacyElem{}, fmt.Errorf("shard: delta chain broken: %s has base=%v", name, e.m.Base)
	}
	return e, nil
}
