// Command cracksrv serves the cracking store over TCP: a concurrent
// network front on the same SQL executor cracksql runs locally, with
// tables hash- or range-sharded across independent cracker stores so
// each connection's queries crack only the shards they touch.
//
// Usage:
//
//	cracksrv [-addr :7744] [-shards 4] [-partition hash|range]
//	         [-strategy ddr|standard] [-seed 42] [-autotune]
//	         [-data dir] [-follow primaryaddr] [-advertise addr]
//	         [-http addr] [-slowms n]
//
// The wire protocol is length-prefixed text frames (see
// internal/server): each request is one SQL statement or one /meta
// command — send /help for the list the running server answers to.
// cmd/crackbench sends one statement to a running server:
//
//	cracksrv -addr 127.0.0.1:7744 -shards 4 &
//	crackbench -addr 127.0.0.1:7744 -exec '/tapestry bench 100000 2'
//	crackbench -addr 127.0.0.1:7744 -exec 'SELECT COUNT(*) FROM bench WHERE c0 < 500'
//
// The e2e tests (go test -tags e2e ./cmd/cracksrv) start this program
// as primaries and followers and check its answers against a model.
//
// -strategy applies on every boot, fresh, recovered or following, to
// the columns cracked once the store is open; nothing logs or
// replicates it. Columns the checkpoint restores, or boot's WAL replay
// cracks, keep the strategy they got. /tune overrides one column. The
// default is ddr, the data-driven random crack of stochastic cracking:
// a server does not know its workload, and under standard, which cuts
// exactly where queries point, a sequential walk re-partitions the
// whole uncracked tail on every statement. -strategy standard is the
// paper's cracking and the embedded library's default (crackdb.New,
// shard.New).
//
// With -data the server is durable: every mutation is appended to
// <dir>/wal.log — fsynced, group-committed — before it is acked, /save
// checkpoints the store (tables plus crack state) and rotates the log,
// and boot recovers image + WAL suffix, so even a SIGKILL loses nothing
// that was acked. When an image exists its recorded sharding
// configuration wins over the command-line flags. Every /save writes one
// numbered chain element straight into <dir>: a manifest
// (<dir>/ckpt-NNNNNN.json) and one image file per shard it carries
// (<dir>/ckpt-NNNNNN-K.crk). The first is a full image; later ones are
// differential elements carrying only the shards that changed, or nothing
// is written when nothing did. /save full forces a fresh full image,
// and the chain compacts by itself when it grows long or heavy. Each
// rotation keeps the four newest WAL segments for replication catch-up,
// plus any a connected follower still needs. -ckptdelta is accepted and
// ignored.
//
// With -follow the server is a read replica: it bootstraps from the
// primary's checkpoint image plus WAL suffix, then pulls and applies
// the primary's log continuously. SELECTs serve from the replica's own
// independently-cracked state; writes (and /tapestry) are refused with
// the primary's address so clients redirect. A follower restarted
// after a crash resumes from its own local log frontier — bootstrap
// only re-runs if the primary has checkpointed past what it still keeps
// archived; a follower that has fallen behind even that, or that cannot
// apply a record the primary accepted, exits non-zero, and a restart
// re-bootstraps. Followers replicate the primary's sharding
// configuration, so -shards/-partition are ignored; -strategy is the
// follower's own, like every server's.
//
// With -autotune each shard monitors the bound stream per column and
// hot-swaps its crack strategy to the one the observed class favours:
// standard on a random stream, ddr on a hostile (sequential, reverse,
// zoom-in) one. Under the default ddr start its move is to flip random
// columns to standard; under -strategy standard, to flip hostile ones
// to ddr. /tune inspects or overrides the decisions, and /stats and
// /metrics report the per-column strategy and flip counters. The tuner
// keeps nothing across a restart: a reopened column resumes under the
// strategy its own image record carries, and the monitor re-learns the
// class from live bounds. A follower tunes its own read workload
// independently (flips are performance posture, never replicated
// state).
//
// Observability is always on (it costs a sampled timing on the
// converged read path; see internal/obs): /metrics answers the
// Prometheus text exposition over the frame protocol, -slowms logs
// statements slower than n milliseconds together with the crack events
// they caused, and one converged lookup in 256 is timed. -http
// additionally serves /metrics and net/http/pprof on a plain HTTP
// address for curl and go tool pprof.
//
// SIGINT/SIGTERM shut the server down cleanly (drain, then exit 0), so
// process supervisors and the e2e tests can assert a clean stop.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crackdb/internal/obs"
	"crackdb/internal/server"
	"crackdb/internal/shard"
	"crackdb/internal/tuner"
)

// traceSample times one converged lookup in this many: the rate that
// keeps the timing inside BenchmarkMetricsOverhead's 5 % gate.
const traceSample = 256

func main() {
	var (
		addr     = flag.String("addr", ":7744", "listen address")
		shards   = flag.Int("shards", 4, "number of cracker stores to partition tables across")
		partKind = flag.String("partition", "hash", "partitioning scheme for new tables: hash or range")
		strat    = flag.String("strategy", "ddr", "crack strategy of columns cracked after boot, on every shard and every boot: standard or ddr")
		seed     = flag.Int64("seed", 42, "strategy RNG seed (per-shard sub-seeds are derived)")
		autotune = flag.Bool("autotune", false, "auto-select crack strategies per column from the observed workload (inspect with /tune)")
		dataDir  = flag.String("data", "", "durable data directory (insert WAL + /save snapshots); empty = volatile")
		follow   = flag.String("follow", "", "run as a read replica of the primary at this address")
		adv      = flag.String("advertise", "", "address peers dial to reach this server (default: the -addr value)")
		httpAddr = flag.String("http", "", "serve /metrics and /debug/pprof over HTTP on this address (e.g. 127.0.0.1:7790)")
		slowMS   = flag.Int("slowms", 0, "log statements slower than this many milliseconds with their crack-event trace (0 = off)")
	)
	flag.Bool("ckptdelta", false, "ignored (a bare /save already chooses between a delta element and a full image)")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cracksrv: "+format+"\n", args...)
	}

	kind, err := shard.ParseKind(*partKind)
	if err != nil {
		fatal(err)
	}
	advertised := *adv
	if advertised == "" {
		advertised = *addr
	}
	opts := shard.Options{Shards: *shards, Kind: kind}
	var store *shard.Store
	var follower *server.Follower
	if *follow != "" {
		f, err := server.OpenFollower(server.FollowerOptions{
			Primary:   *follow,
			DataDir:   *dataDir,
			Advertise: advertised,
			Logf:      logf,
		})
		if err != nil {
			fatal(err)
		}
		follower = f
		store = f.Store()
	} else if *dataDir != "" {
		st, info, err := shard.OpenDurable(*dataDir, opts)
		if err != nil {
			fatal(err)
		}
		store = st
		switch {
		case info.Recovered:
			logf("recovered %d tables from %s (warm snapshot through seq %d, %d WAL records replayed)",
				len(store.Tables()), *dataDir, info.AppliedSeq, info.Replayed)
		case info.Replayed > 0:
			logf("recovered %d tables from %s (no snapshot, %d WAL records replayed)",
				len(store.Tables()), *dataDir, info.Replayed)
		default:
			logf("durable in %s (fresh data directory)", *dataDir)
		}
	} else {
		store = shard.New(opts)
	}
	// The strategy is this process's: no image or log carries one, so it
	// is set after every open, fresh, recovered or following.
	if err := store.SetCrackStrategy(*strat, *seed); err != nil {
		fatal(err)
	}
	// The tuner is this process's too, and starts from each column's own
	// strategy. Followers tune independently — strategy flips shape
	// performance, never results, so they cannot diverge a replica.
	if *autotune {
		store.EnableAutotune(tuner.Config{})
		logf("autotune enabled (per-column strategy selection; inspect with /tune)")
	}

	srv := server.New(store, logf)
	srv.SetAdvertise(advertised)
	if follower != nil {
		srv.SetPrimary(follower.Primary())
	}
	srv.EnableObservability(time.Duration(*slowMS)*time.Millisecond, traceSample)
	// Bind before the follower's first pull, where it registers with its
	// primary: a member the primary lists is listening, so discovery
	// takes a refused port for a dead member.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	var followed chan error // nil without -follow: never ready
	if follower != nil {
		follower.EnableLagGauges()
		followed = make(chan error, 1)
		go func() { followed <- follower.Run() }()
	}
	if *slowMS > 0 {
		logf("slow-query log at >= %dms", *slowMS)
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			fams, ok := store.Gather()
			if !ok {
				http.Error(w, "observability is off", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			obs.WriteText(w, fams)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logf("http introspection on %s (/metrics, /debug/pprof)", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				logf("http introspection: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		fatal(err) // listener died before any signal
	case err := <-followed:
		// Replication ended for good; serving reads that never advance
		// would hide it.
		srv.Shutdown(5 * time.Second)
		<-done
		store.CloseWAL()
		fatal(err)
	case s := <-sig:
		logf("received %s, shutting down", s)
		if follower != nil {
			follower.Stop() // stop applying before the log closes
		}
		srv.Shutdown(5 * time.Second)
		if err := <-done; err != nil {
			fatal(err)
		}
		if err := store.CloseWAL(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cracksrv:", err)
	os.Exit(1)
}
