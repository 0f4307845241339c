package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crackdb/internal/durable"
	"crackdb/internal/obs"
	"crackdb/internal/shard"
)

// A follower is a full durable store that trails a primary by pulling
// its WAL: OpenFollower bootstraps local state (from the primary's
// checkpoint image when the local log has fallen behind the archived
// stream, otherwise from whatever is already on disk), and Run pulls
// committed records forever, applying each through the normal mutation
// path — which re-logs it locally, seq for seq, so the follower's own
// log frontier is always exactly its applied position and a SIGKILLed
// follower resumes from where its fsync got to.
//
// Crack state is deliberately NOT replicated. Each replica cracks its
// own columns under its own query load — the paper's core property,
// that the physical organization adapts to the workload actually seen,
// holds per replica. Only the logical mutation stream is shared.

// pullMaxBytes bounds one /replpull reply's record payload.
const pullMaxBytes = 4 << 20

// fetchChunk is the /replfetch request size during bootstrap.
const fetchChunk = 1 << 20

// FollowerOptions configures OpenFollower.
type FollowerOptions struct {
	// Primary is the address of the server to follow. Required.
	Primary string
	// DataDir is the follower's own durable directory. Empty means a
	// fresh temp dir (a throwaway read replica).
	DataDir string
	// Advertise is the address this follower reports in its pull
	// heartbeats and publishes via its own /repl meta. Optional.
	Advertise string
	// Logf receives lifecycle lines (nil silences).
	Logf func(format string, args ...any)
}

// Follower is a store kept in sync with a primary. Serve reads from
// Store() (e.g. by handing it to New); call Run on a goroutine to start
// replication and Stop to halt it.
type Follower struct {
	store     *shard.Store
	primary   string
	advertise string
	dataDir   string
	logf      func(format string, args ...any)

	stop chan struct{}
	done chan struct{}
	pull atomic.Pointer[Client] // Run's current connection, closed by Stop

	// primaryDurable is the primary's committed frontier as of the last
	// pull reply — what the local lag gauge measures against.
	primaryDurable atomic.Uint64
	applied        atomic.Uint64 // records applied since Run started
	lagWired       atomic.Bool   // lag collector registered at most once

	// Bootstrap transfer accounting: bytes actually fetched from the
	// primary vs. bytes satisfied by checksum-matched local files. A
	// re-bootstrap against a mostly-unchanged image shows downloaded ≪
	// reused — the resumability the gauges exist to prove.
	bootDownloaded atomic.Int64
	bootReused     atomic.Int64
}

// Store returns the follower's local store, safe for concurrent reads
// while Run applies.
func (f *Follower) Store() *shard.Store { return f.store }

// Primary returns the address this follower pulls from.
func (f *Follower) Primary() string { return f.primary }

// OpenFollower connects to the primary, mirrors its sharding options,
// boots a local durable store, and — when the local log position has
// fallen behind what the primary can still serve (live WAL plus
// archives) — wipes local state and bootstraps from the primary's
// checkpoint image plus the WAL suffix. The returned follower is ready
// to serve reads; Run starts continuous catch-up.
func OpenFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Primary == "" {
		return nil, fmt.Errorf("server: follower needs a primary address")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dataDir := opts.DataDir
	if dataDir == "" {
		dir, err := os.MkdirTemp("", "crackdb-follower-*")
		if err != nil {
			return nil, err
		}
		dataDir = dir
	}

	c, err := DialTimeout(opts.Primary, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("server: dial primary %s: %w", opts.Primary, err)
	}
	defer c.Close()

	kv, _, err := replKV(c)
	if err != nil {
		return nil, err
	}
	if kv["durable"] != "true" {
		return nil, fmt.Errorf("server: primary %s is not durable (start it with -data)", opts.Primary)
	}
	if kv["role"] != "primary" {
		return nil, fmt.Errorf("server: %s is a %s (chained replication is not supported)", opts.Primary, kv["role"])
	}
	sOpts, err := optionsFromKV(kv)
	if err != nil {
		return nil, err
	}

	store, info, err := shard.OpenDurable(dataDir, sOpts)
	if err != nil {
		return nil, err
	}
	if info.Recovered {
		logf("follower: local state at seq %d (%d records replayed)", localNext(store), info.Replayed)
	}

	// Probe: can the primary serve our position from its live log or
	// archives? If not, the local image is too old — bootstrap from the
	// primary's checkpoint. A position equal to the primary's next seq
	// is its live frontier and servable by definition; probing it would
	// park the whole long-poll window, since nothing lies past it.
	var bootTransfer bootStats
	resp := &Response{}
	if from := localNext(store); strconv.FormatUint(from, 10) != kv["next"] {
		resp, err = c.Do(fmt.Sprintf("/replpull %d 1", from))
		if err != nil {
			store.CloseWAL()
			return nil, fmt.Errorf("server: probe primary: %w", err)
		}
	}
	if resp.Err != "" {
		if !strings.HasPrefix(resp.Err, "snapshot required") {
			store.CloseWAL()
			return nil, fmt.Errorf("server: primary refused pull: %s", resp.Err)
		}
		logf("follower: %s; bootstrapping from primary checkpoint", resp.Err)
		if err := store.CloseWAL(); err != nil {
			return nil, err
		}
		store, bootTransfer, err = bootstrapFromSnapshot(c, dataDir, sOpts, logf)
		if err != nil {
			return nil, err
		}
	}

	f := &Follower{
		store:     store,
		primary:   opts.Primary,
		advertise: opts.Advertise,
		dataDir:   dataDir,
		logf:      logf,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	f.bootDownloaded.Store(bootTransfer.downloaded)
	f.bootReused.Store(bootTransfer.reused)
	if reg := store.Registry(); reg != nil {
		f.registerLagGauges(reg)
	}
	logf("follower: following %s from seq %d (data in %s)", opts.Primary, localNext(store), dataDir)
	return f, nil
}

// registerLagGauges exports the follower's own view of its lag.
// Idempotent: the collector registers at most once, whether the
// registry existed at OpenFollower or appeared later.
func (f *Follower) registerLagGauges(reg *obs.Registry) {
	if !f.lagWired.CompareAndSwap(false, true) {
		return
	}
	reg.RegisterCollector(func(e *obs.Exporter) {
		next := localNext(f.store)
		pd := f.primaryDurable.Load()
		lag := int64(pd) - int64(next)
		if lag < 0 {
			lag = 0
		}
		e.Gauge("crackdb_repl_primary_durable_seq", "Primary's committed frontier at the last pull.", float64(pd))
		e.Gauge("crackdb_repl_apply_lag_records", "Committed primary records not yet applied locally.", float64(lag))
		e.Counter("crackdb_repl_applied_records_total", "Records applied since this follower started.", int64(f.applied.Load()))
		e.Gauge("crackdb_repl_bootstrap_downloaded_bytes", "Snapshot bytes fetched from the primary at the last bootstrap.", float64(f.bootDownloaded.Load()))
		e.Gauge("crackdb_repl_bootstrap_reused_bytes", "Snapshot bytes satisfied by checksum-matched local files at the last bootstrap.", float64(f.bootReused.Load()))
	})
}

// EnableLagGauges wires the lag collector onto a registry that appeared
// after OpenFollower (cracksrv enables observability on the server,
// which instruments the store).
func (f *Follower) EnableLagGauges() {
	if reg := f.store.Registry(); reg != nil {
		f.registerLagGauges(reg)
	}
}

// localNext is the follower's next seq to apply == its local log's next
// seq (Apply re-logs 1:1).
func localNext(s *shard.Store) uint64 {
	if w := s.WAL(); w != nil {
		return w.Seq()
	}
	return 0
}

// errReplicationEnded marks a pull loop error no reconnect can cure.
var errReplicationEnded = errors.New("replication ended")

// Run pulls and applies until Stop, reconnecting with backoff on a dial
// or connection failure. It returns nil after Stop, or the error that
// ends replication for good: the primary no longer holds the log from
// this follower's position (a restart re-bootstraps — OpenFollower does
// that), or a record the primary accepted does not apply here. Retrying
// either would only keep serving reads that never advance. Safe to call
// once.
func (f *Follower) Run() error {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		c, err := DialTimeout(f.primary, 2*time.Second)
		if err != nil {
			f.logf("follower: dial %s: %v (retrying)", f.primary, err)
			if !f.sleep(500 * time.Millisecond) {
				return nil
			}
			continue
		}
		f.pull.Store(c)
		err = f.pullLoop(c)
		f.pull.Store(nil)
		c.Close()
		select {
		case <-f.stop:
			return nil
		default:
		}
		if errors.Is(err, errReplicationEnded) {
			f.logf("follower: %v", err)
			return err
		}
		if err != nil {
			f.logf("follower: replication interrupted: %v (reconnecting)", err)
		}
		if !f.sleep(200 * time.Millisecond) {
			return nil
		}
	}
}

// Stop halts Run and waits for it to exit. Closing the pull connection
// ends an in-flight long poll at once; pullLoop checks stop before its
// next request, so a connection stored after the load is never used.
func (f *Follower) Stop() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	if c := f.pull.Load(); c != nil {
		c.conn.Close()
	}
	<-f.done
}

func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stop:
		return false
	case <-t.C:
		return true
	}
}

// pullLoop drives one connection: long-poll /replpull from the local
// frontier, apply every record in order, repeat. Returns on connection
// error or a primary-side refusal (the caller reconnects), or with
// errReplicationEnded.
func (f *Follower) pullLoop(c *Client) error {
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		next := localNext(f.store)
		cmd := fmt.Sprintf("/replpull %d %d", next, pullMaxBytes)
		if f.advertise != "" {
			cmd = fmt.Sprintf("%s %s %d", cmd, f.advertise, next)
		}
		resp, err := c.Do(cmd)
		if err != nil {
			return err
		}
		if resp.Err != "" {
			if strings.HasPrefix(resp.Err, "snapshot required") {
				// The primary checkpointed past our position more times than
				// it keeps archived segments — a follower that stayed
				// connected never gets here; a restart re-bootstraps.
				return fmt.Errorf("%w: fell behind the archived log (%s); restart the follower to re-bootstrap", errReplicationEnded, resp.Err)
			}
			return fmt.Errorf("primary: %s", resp.Err)
		}
		primaryDurable, recs, err := parsePull(resp)
		if err != nil {
			return err
		}
		f.primaryDurable.Store(primaryDurable)
		for _, rec := range recs {
			if err := f.store.Apply(rec); err != nil {
				// A record the primary accepted must apply here — the stores
				// hold identical logical state. Divergence is fatal.
				return fmt.Errorf("%w: apply seq %d (%v on %q): %v", errReplicationEnded, next, rec.Kind, rec.Table, err)
			}
			next++
			f.applied.Add(1)
		}
	}
}

// parsePull decodes a /replpull reply: "next=<n> durable=<d> recs=<b64>".
// next is checked, not returned: the follower counts its own position.
func parsePull(resp *Response) (durableSeq uint64, recs []durable.Record, err error) {
	fields := strings.Fields(resp.Message)
	if len(fields) != 3 {
		return 0, nil, fmt.Errorf("server: malformed pull reply %q", resp.Message)
	}
	for _, fld := range fields {
		switch {
		case strings.HasPrefix(fld, "next="):
			_, err = strconv.ParseUint(fld[len("next="):], 10, 64)
		case strings.HasPrefix(fld, "durable="):
			durableSeq, err = strconv.ParseUint(fld[len("durable="):], 10, 64)
		case strings.HasPrefix(fld, "recs="):
			var raw []byte
			raw, err = base64.StdEncoding.DecodeString(fld[len("recs="):])
			if err == nil {
				recs, err = durable.DecodeRecords(raw)
			}
		default:
			err = fmt.Errorf("server: unknown pull field %q", fld)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return durableSeq, recs, nil
}

// replKV fetches /repl and folds it into a map plus the follower rows.
func replKV(c *Client) (map[string]string, []string, error) {
	resp, err := c.Do("/repl")
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != "" {
		return nil, nil, fmt.Errorf("server: /repl: %s", resp.Err)
	}
	kv := make(map[string]string, len(resp.Rows))
	var followers []string
	for _, row := range resp.Rows {
		if len(row) != 2 {
			continue
		}
		if row[0] == "follower" {
			followers = append(followers, row[1])
			continue
		}
		kv[row[0]] = row[1]
	}
	return kv, followers, nil
}

// optionsFromKV mirrors the primary's sharding options so the logical
// WAL records route identically on the follower.
func optionsFromKV(kv map[string]string) (shard.Options, error) {
	var o shard.Options
	n, err := strconv.Atoi(kv["shards"])
	if err != nil {
		return o, fmt.Errorf("server: primary reported bad shard count %q", kv["shards"])
	}
	o.Shards = n
	o.Kind = shard.Kind(kv["kind"])
	return o, nil
}

// bootStats accounts a bootstrap's transfer: bytes fetched over the
// wire vs. bytes satisfied by checksum-matched files already on disk.
type bootStats struct {
	downloaded int64
	reused     int64
}

// BootstrapBytes reports the last bootstrap's transfer accounting
// (zero/zero when the follower resumed from its own log without one).
func (f *Follower) BootstrapBytes() (downloaded, reused int64) {
	return f.bootDownloaded.Load(), f.bootReused.Load()
}

// fileID is what identifies a snapshot file's contents.
type fileID struct {
	size int64
	crc  uint32
}

// localCopies indexes the files under root by contents, reading only
// those whose size some file of m has: a file is reused by what it
// holds, not by its name, because an unchanged shard keeps its bytes
// across checkpoints while its element's number moves on.
func localCopies(root string, m shard.SnapshotManifest) map[fileID]string {
	sizes := make(map[int64]bool, len(m.Files))
	for _, sf := range m.Files {
		sizes[sf.Size] = true
	}
	have := make(map[fileID]string)
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err != nil || !sizes[info.Size()] {
			return nil
		}
		if data, err := os.ReadFile(path); err == nil {
			have[fileID{int64(len(data)), crc32.Checksum(data, durable.SnapshotCRC)}] = path
		}
		return nil
	})
	return have
}

// bootstrapFromSnapshot replaces the follower's local state with the
// primary's checkpoint image — base plus delta chain — downloading only
// what local disk does not already hold. Every manifest file is first
// checked (by size and checksum) against the staging dir, then against
// the previously installed image; only mismatches are fetched. Every
// chunk read is fenced by the image's seq, and every downloaded file is
// checksum-verified against the manifest (the fence alone cannot catch
// a checkpoint that replaced files at an unchanged seq); either trip
// answers "snapshot superseded", and the retry re-fetches the manifest
// but keeps the staging dir — files unchanged across the checkpoint are
// never downloaded twice, so the bootstrap converges even when
// checkpoints keep racing it. Once staging is complete,
// shard.InstallSnapshot replaces the stale local state with the image,
// and OpenDurable boots warm from it with a fresh log based at the
// image's seq — exactly the position the pull loop resumes from.
func bootstrapFromSnapshot(c *Client, dataDir string, sOpts shard.Options, logf func(string, ...any)) (*shard.Store, bootStats, error) {
	const attempts = 8
	var stats bootStats
	staging := filepath.Join(dataDir, "store.repl")
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		m, err := fetchManifest(c)
		if err != nil {
			return nil, stats, err
		}
		reused, err := stageImage(c, m, staging, dataDir, &stats)
		if err != nil {
			if strings.Contains(err.Error(), "superseded") {
				logf("follower: snapshot superseded mid-download, resuming against the newer image")
				lastErr = err
				continue
			}
			return nil, stats, err
		}
		stats.reused = reused
		// Point of no return. A primary that has never checkpointed has no
		// image: the whole history lives in its log (base 0), so an empty
		// local store replayed from seq 0 is the bootstrap.
		if err := shard.InstallSnapshot(dataDir, staging, m); err != nil {
			return nil, stats, err
		}
		os.RemoveAll(staging)
		store, info, err := shard.OpenDurable(dataDir, sOpts)
		if err != nil {
			return nil, stats, err
		}
		logf("follower: bootstrapped from primary snapshot at seq %d (%d files, %d bytes fetched, %d reused)",
			info.AppliedSeq, len(m.Files), stats.downloaded, stats.reused)
		return store, stats, nil
	}
	return nil, stats, fmt.Errorf("server: snapshot bootstrap kept racing checkpoints: %v", lastErr)
}

// stageImage brings the staging dir to the manifest's contents,
// downloading only files whose contents match no local file — a staged
// copy from an earlier, interrupted attempt, or any file of the installed
// local image. Returns the byte count satisfied locally. A manifest that
// names anything but chain files is refused before anything is written:
// no path a primary sends may reach outside the staging dir.
func stageImage(c *Client, m shard.SnapshotManifest, staging, dataDir string, stats *bootStats) (int64, error) {
	if err := m.Check(); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return 0, err
	}
	have := localCopies(dataDir, m)
	var reused int64
	for _, sf := range m.Files {
		dst := filepath.Join(staging, sf.Path)
		if src, ok := have[fileID{sf.Size, sf.Crc}]; ok && reuse(src, dst, sf) {
			reused += sf.Size
			continue
		}
		if err := downloadFile(c, m.Seq, sf, dst, stats); err != nil {
			return reused, err
		}
	}
	return reused, nil
}

// reuse puts the local file src at dst, if src still holds sf's
// contents: a staged file this attempt has since rewritten does not.
func reuse(src, dst string, sf shard.SnapshotFile) bool {
	if src == dst {
		return true
	}
	data, err := os.ReadFile(src)
	if err != nil || int64(len(data)) != sf.Size || crc32.Checksum(data, durable.SnapshotCRC) != sf.Crc {
		return false
	}
	return durable.WriteFile(dst, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}) == nil
}

// fetchManifest pulls and decodes /replmanifest.
func fetchManifest(c *Client) (shard.SnapshotManifest, error) {
	var m shard.SnapshotManifest
	resp, err := c.Do("/replmanifest")
	if err != nil {
		return m, err
	}
	if resp.Err != "" {
		return m, fmt.Errorf("server: /replmanifest: %s", resp.Err)
	}
	b64, ok := strings.CutPrefix(resp.Message, "manifest ")
	if !ok {
		return m, fmt.Errorf("server: malformed manifest reply %q", resp.Message)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, err
	}
	return m, nil
}

// downloadFile fetches one manifest file into dst, chunk by chunk,
// counting the transferred bytes, verifies the result against the
// manifest's checksum, and fsyncs it. The seq fence only catches
// checkpoints that advanced the WAL stamp, and a crack-only element
// leaves it where it was; the CRC is what guarantees the staged file
// matches the manifest. A mismatch (or a file that shrank or vanished
// mid-download) reads as a superseded snapshot, and the caller
// re-fetches the manifest. Any failure leaves no staging copy.
func downloadFile(c *Client, seq uint64, sf shard.SnapshotFile, dst string, stats *bootStats) error {
	return durable.WriteFile(dst, func(out io.Writer) error {
		sum := crc32.New(durable.SnapshotCRC)
		for off := int64(0); off < sf.Size; {
			n := min(sf.Size-off, fetchChunk)
			resp, err := c.Do(fmt.Sprintf("/replfetch %d %s %d %d", seq, sf.Path, off, n))
			if err != nil {
				return err
			}
			if resp.Err != "" {
				return fmt.Errorf("server: /replfetch %s: %s", sf.Path, resp.Err)
			}
			b64, ok := strings.CutPrefix(resp.Message, "chunk ")
			if !ok {
				return fmt.Errorf("server: malformed chunk reply %q", resp.Message)
			}
			chunk, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return err
			}
			if len(chunk) == 0 {
				return fmt.Errorf("server: image file %s shrank mid-download (%d of %d bytes) — snapshot superseded", sf.Path, off, sf.Size)
			}
			if _, err := out.Write(chunk); err != nil {
				return err
			}
			sum.Write(chunk)
			off += int64(len(chunk))
			stats.downloaded += int64(len(chunk))
		}
		if sum.Sum32() != sf.Crc {
			return fmt.Errorf("server: image file %s downloaded with crc %08x, manifest wants %08x — snapshot superseded mid-download", sf.Path, sum.Sum32(), sf.Crc)
		}
		return nil
	})
}
