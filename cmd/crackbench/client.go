package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"crackdb/internal/server"
	"crackdb/internal/workload"
)

// clientConfig parameterizes the network load-generation mode
// (crackbench -addr host:port): concurrent clients streaming
// workload-patterned range counts at a running cracksrv.
type clientConfig struct {
	addr     string
	addrs    []string // replicated mode: members of a primary+followers topology
	readpref string   // replicated mode: primary|follower|any (default any)
	clients  int
	queries  int // total per workload pattern, split across clients
	n        int // tapestry cardinality to preload
	seed     int64
	sel      float64
	workload string
	strategy string // "" = leave the server's configured strategy alone
	check    bool   // assert exact counts and server stats
	inserts  int    // rows each worker INSERTs mid-stream (keys above the domain)
	expect   int    // -check: expected total COUNT(*) (0 = n + this run's inserts)
	exec     string // one-shot: run a single statement/meta and print the reply
	batch    int    // pipeline window per worker (<=1 = synchronous)

	// Resolved by runClient in replicated mode:
	readerAddrs []string // reads rotate over these
	writeAddr   string   // mutations go here (the primary)
}

func (c *clientConfig) defaults() {
	if c.clients <= 0 {
		c.clients = 4
	}
	if c.queries <= 0 {
		c.queries = 800
	}
	if c.n <= 0 {
		c.n = 100_000
	}
	if c.sel <= 0 {
		c.sel = 0.01
	}
	if c.workload == "" {
		c.workload = "all"
	}
	if c.batch <= 0 {
		c.batch = 1
	}
}

// runClient preloads a tapestry table on the server (idempotently) and
// drives each requested workload pattern through concurrent
// connections. Output is go-bench formatted, one line per pattern:
//
//	BenchmarkClientServer/workload=random/clients=4   800   151234 ns/op   6612.4 qps
//
// With -check every count is asserted exactly: the tapestry key column
// is a permutation of 1..n, so a range's count is precisely its width.
func runClient(cfg clientConfig) error {
	cfg.defaults()
	// Replicated mode (-addrs): discover the topology, send every
	// mutation to the primary, and rotate the read streams over the
	// members the read preference selects. A fence after setup
	// guarantees every reader has the freshly loaded table before the
	// query streams hit it; mid-stream INSERTs stay exact because they
	// key above the tapestry domain the range counts cover.
	var topo server.Topology
	if len(cfg.addrs) > 0 {
		var err error
		if topo, err = server.Discover(cfg.addrs); err != nil {
			return err
		}
		if cfg.readerAddrs, err = topo.Readers(cfg.readpref); err != nil {
			return err
		}
		cfg.writeAddr = topo.Primary
		if cfg.writeAddr == "" {
			return fmt.Errorf("no primary in topology %v", cfg.addrs)
		}
		cfg.addr = cfg.writeAddr
		fmt.Fprintf(os.Stderr, "replicated topology: primary=%s readers=%v\n", cfg.writeAddr, cfg.readerAddrs)
	}
	setup, err := server.DialTimeout(cfg.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer setup.Close()
	if cfg.exec != "" {
		// One-shot mode: run a single statement or /meta and print the
		// reply — how scripts drive /save, /wal, or an ad-hoc assertion.
		resp, err := setup.Do(cfg.exec)
		if err != nil {
			return err
		}
		if resp.Err != "" {
			return fmt.Errorf("%s: %s", cfg.exec, resp.Err)
		}
		if resp.Message != "" {
			fmt.Println(resp.Message)
		}
		for _, row := range resp.Rows {
			fmt.Println(strings.Join(row, "\t"))
		}
		return nil
	}
	if _, err := setup.Exec("/ping"); err != nil {
		return err
	}
	if cfg.strategy != "" {
		// Flip the crack strategy on every shard before the table exists,
		// so the load's columns are created under it.
		if _, err := setup.Exec(fmt.Sprintf("/strategy %s %d", cfg.strategy, cfg.seed)); err != nil {
			return err
		}
	}
	if resp, err := setup.Do(fmt.Sprintf("/tapestry bench %d 2 %d", cfg.n, cfg.seed)); err != nil {
		return err
	} else if resp.Err != "" && !strings.Contains(resp.Err, "already exists") {
		return fmt.Errorf("tapestry load: %s", resp.Err)
	}
	if len(cfg.addrs) > 0 {
		if err := topo.Fence(60 * time.Second); err != nil {
			return fmt.Errorf("fence after setup: %w", err)
		}
	}

	patterns := workload.Patterns()
	if cfg.workload != "all" {
		p, err := workload.Parse(cfg.workload)
		if err != nil {
			return err
		}
		patterns = []workload.Pattern{p}
	}
	for pi, p := range patterns {
		if err := runClientPattern(cfg, p, pi); err != nil {
			return err
		}
	}

	if cfg.check {
		total, err := setup.Count("SELECT COUNT(*) FROM bench")
		if err != nil {
			return err
		}
		// The tapestry contributes n rows; this run's inserts add to them
		// (one batch of cfg.inserts per worker per pattern). -expectrows
		// overrides the sum — how a restarted run asserts that rows
		// inserted before a crash survived it.
		want := int64(cfg.n) + int64(cfg.inserts*cfg.clients*len(patterns))
		if cfg.expect > 0 {
			want = int64(cfg.expect)
		}
		if total != want {
			return fmt.Errorf("check: COUNT(*) = %d, want %d", total, want)
		}
		// The crackers that absorbed the streams live on whichever members
		// served the reads — in replicated mode that may exclude the
		// primary entirely, so ask a reader.
		statsConn := setup
		if len(cfg.readerAddrs) > 0 && cfg.readerAddrs[0] != cfg.addr {
			rc, err := server.DialTimeout(cfg.readerAddrs[0], 5*time.Second)
			if err != nil {
				return err
			}
			defer rc.Close()
			statsConn = rc
		}
		stats, err := statsConn.Exec("/stats bench c0")
		if err != nil {
			return err
		}
		totQ, err := stats.Int64(len(stats.Rows)-1, 1)
		if err != nil {
			return err
		}
		if totQ == 0 {
			return fmt.Errorf("check: server reports zero queries after the load run")
		}
		fmt.Fprintf(os.Stderr, "check ok: %d rows, %d queries absorbed by the crackers\n", total, totQ)
	}
	return nil
}

// runClientPattern fans one pattern's stream over the clients and
// prints one benchmark line.
func runClientPattern(cfg clientConfig, p workload.Pattern, patternIdx int) error {
	perWorker := cfg.queries / cfg.clients
	if perWorker < 1 {
		perWorker = 1
	}
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.clients; w++ {
		readAddr := cfg.addr
		if len(cfg.readerAddrs) > 0 {
			// Workers rotate over the readers, so 2 followers with 4
			// clients serve 2 read streams each.
			readAddr = cfg.readerAddrs[w%len(cfg.readerAddrs)]
		}
		wg.Add(1)
		go func(w int, readAddr string) {
			defer wg.Done()
			errs[w] = clientWorker(cfg, p, patternIdx, w, perWorker, readAddr)
		}(w, readAddr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("workload %s: %w", p, err)
		}
	}
	totalQ := perWorker * cfg.clients
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(totalQ)
	qps := float64(totalQ) / elapsed.Seconds()
	label := fmt.Sprintf("BenchmarkClientServer/workload=%s/clients=%d", p, cfg.clients)
	if cfg.batch > 1 {
		// The batch label marks pipelined runs; synchronous runs keep the
		// historical series name.
		label += fmt.Sprintf("/batch=%d", cfg.batch)
	}
	if len(cfg.readerAddrs) > 0 {
		label += fmt.Sprintf("/readers=%d", len(cfg.readerAddrs))
	}
	fmt.Printf("%s \t%8d\t%12.0f ns/op\t%10.1f qps\n", label, totalQ, nsPerOp, qps)
	return nil
}

// clientWorker streams one connection's share of the pattern. Each
// worker derives its own generator seed, so the server sees clients
// whose individual streams follow the pattern — the sharded analogue of
// the robustness matrix. With -inserts it interleaves that many INSERTs
// into its stream, keyed above the tapestry domain (every worker across
// every pattern gets a disjoint key block), so the range-count
// assertions stay exact while the server absorbs genuine mixed traffic.
func clientWorker(cfg clientConfig, p workload.Pattern, patternIdx, w, count int, readAddr string) error {
	c, err := server.DialTimeout(readAddr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	// In replicated mode a worker reading from a follower sends its
	// INSERTs on a second connection to the primary — the follower would
	// refuse them. Same-address workers keep the single connection.
	wc := c
	if cfg.writeAddr != "" && cfg.writeAddr != readAddr && cfg.inserts > 0 {
		pc, err := server.DialTimeout(cfg.writeAddr, 5*time.Second)
		if err != nil {
			return err
		}
		defer pc.Close()
		wc = pc
	}
	gen, err := workload.New(p, workload.Config{
		Domain:      int64(cfg.n),
		Count:       count,
		Selectivity: cfg.sel,
		Seed:        cfg.seed + int64(w)*31 + 1,
	})
	if err != nil {
		return err
	}
	insertBase := int64(cfg.n) + 1 + int64((patternIdx*cfg.clients+w)*cfg.inserts)
	inserted := 0
	insertEvery := 0
	if cfg.inserts > 0 {
		insertEvery = count / cfg.inserts
		if insertEvery < 1 {
			insertEvery = 1
		}
	}
	var repeatStmt string
	var repeatWant int64
	// Pipelined mode collects a window of statements and streams it in
	// one DoBatch round trip. INSERTs ride inside the window (want -1:
	// no count to assert), so the server sees genuine mixed in-flight
	// traffic; count responses are still asserted per statement.
	var stmts []string
	var wants []int64
	flush := func() error {
		if len(stmts) == 0 {
			return nil
		}
		resps, err := c.DoBatch(stmts)
		if err != nil {
			return fmt.Errorf("worker %d: %w", w, err)
		}
		for i, resp := range resps {
			if resp.Err != "" {
				return fmt.Errorf("worker %d: %s: %s", w, stmts[i], resp.Err)
			}
			if wants[i] < 0 {
				continue
			}
			got, err := resp.Int64(0, 0)
			if err != nil {
				return fmt.Errorf("worker %d: %s: %w", w, stmts[i], err)
			}
			if cfg.check && got != wants[i] {
				return fmt.Errorf("worker %d: %s returned %d, want %d", w, stmts[i], got, wants[i])
			}
			if repeatStmt == "" {
				repeatStmt, repeatWant = stmts[i], got
			}
		}
		stmts, wants = stmts[:0], wants[:0]
		return nil
	}
	qi := 0
	for {
		q, ok := gen.Next()
		if !ok {
			break
		}
		if insertEvery > 0 && qi%insertEvery == 0 && inserted < cfg.inserts {
			key := insertBase + int64(inserted)
			ins := fmt.Sprintf("INSERT INTO bench VALUES (%d, %d)", key, key)
			if cfg.batch > 1 && wc == c {
				stmts, wants = append(stmts, ins), append(wants, -1)
			} else if resp, err := wc.Exec(ins); err != nil {
				return fmt.Errorf("worker %d: %s: %w", w, ins, err)
			} else if resp.Err != "" {
				return fmt.Errorf("worker %d: %s: %s", w, ins, resp.Err)
			}
			inserted++
		}
		qi++
		// Tapestry values live in 1..n; the generator emits [lo, hi) over
		// [0, n), so shift by one.
		stmt := fmt.Sprintf("SELECT COUNT(*) FROM bench WHERE c0 >= %d AND c0 < %d", q.Lo+1, q.Hi+1)
		if cfg.batch > 1 {
			stmts, wants = append(stmts, stmt), append(wants, q.Hi-q.Lo)
			if len(stmts) >= cfg.batch {
				if err := flush(); err != nil {
					return err
				}
			}
			continue
		}
		got, err := c.Count(stmt)
		if err != nil {
			return err
		}
		if cfg.check && got != q.Hi-q.Lo {
			return fmt.Errorf("worker %d: %s returned %d, want %d", w, stmt, got, q.Hi-q.Lo)
		}
		if repeatStmt == "" {
			repeatStmt, repeatWant = stmt, got
		}
	}
	if err := flush(); err != nil {
		return err
	}
	// Flush inserts a short stream did not interleave, so the -check
	// arithmetic (inserts × clients × patterns) always holds.
	for ; inserted < cfg.inserts; inserted++ {
		key := insertBase + int64(inserted)
		ins := fmt.Sprintf("INSERT INTO bench VALUES (%d, %d)", key, key)
		if resp, err := wc.Exec(ins); err != nil {
			return fmt.Errorf("worker %d: %s: %w", w, ins, err)
		} else if resp.Err != "" {
			return fmt.Errorf("worker %d: %s: %s", w, ins, resp.Err)
		}
	}
	if cfg.check && repeatStmt != "" {
		// Stability: re-asking the first query after the whole stream has
		// cracked the shards must return the same count.
		got, err := c.Count(repeatStmt)
		if err != nil {
			return err
		}
		if got != repeatWant {
			return fmt.Errorf("worker %d: repeated %q drifted %d -> %d", w, repeatStmt, repeatWant, got)
		}
	}
	return nil
}
