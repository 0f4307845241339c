// Command crackbench regenerates the figures of "Cracking the Database
// Store" (Kersten & Manegold, CIDR 2005) on this library's substrates and
// prints the series as TSV (for plotting) or as a shape summary.
//
// Usage:
//
//	crackbench -fig 1a|1b|1c|2|3|5|8|9|10|11|hiking|sql|parallel|stochastic|shard|recovery|sideways|batch|convergence|autotune|granules|all [flags]
//	crackbench -addr host:port -exec stmt
//
// Flags:
//
//	-n int        table / vector cardinality (default: paper scale where feasible)
//	-k int        sequence length (figures 2, 3, 10, 11)
//	-seed int     RNG seed (default 42)
//	-summary      print a shape summary instead of TSV
//	-budget dur   per-configuration wall budget for figure 9 (default 5s)
//	-parallel     shorthand for -fig parallel (converged-lookup scaling)
//	-ops int      lookups per goroutine for -fig parallel (default 200000)
//	-strategy s   crack strategy for -fig stochastic: standard|ddr|all
//	-workload w   query pattern for -fig stochastic:
//	              random|sequential|reverse|zoomin|periodic|all
//	-queries int  queries per stochastic/shard cell (default 512 / 2000)
//	-sel float    stochastic/shard per-query selectivity (default 0.01)
//	-addr string  with -exec: the running cracksrv to send the statement to
//	-exec string  run one statement or /meta command there, print the reply
//
// Setting -strategy or -workload implies -fig stochastic, so the
// robustness matrix reads naturally:
//
//	crackbench -workload=sequential -strategy=all -summary
//
// Examples:
//
//	crackbench -fig 2                  # granule simulation, TSV to stdout
//	crackbench -fig 5                  # Figure 5's queries and the lineage they leave
//	crackbench -fig 10 -n 1000000      # homeruns on 1M rows
//	crackbench -parallel               # read-path scaling across goroutines
//	crackbench -workload=sequential -strategy=ddr     # one robustness cell
//	crackbench -fig all -summary       # every figure, digest form
//	crackbench -addr 127.0.0.1:7744 -exec /save   # checkpoint a durable server
//
// Load over the wire is the benchmark's job (go run -C bench .), and
// cmd/cracksrv's e2e tests drive real servers with exact answers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crackdb/internal/figures"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 1a,1b,1c,2,3,5,8,9,10,11,hiking,sql,parallel,stochastic,shard,recovery,sideways,batch,convergence,autotune,granules,all")
		n        = flag.Int("n", 0, "cardinality override (0 = figure default)")
		k        = flag.Int("k", 0, "sequence length override (0 = figure default)")
		seed     = flag.Int64("seed", 42, "RNG seed")
		summary  = flag.Bool("summary", false, "print shape summary instead of TSV")
		budget   = flag.Duration("budget", 5*time.Second, "figure 9 per-configuration budget")
		parallel = flag.Bool("parallel", false, "shorthand for -fig parallel")
		ops      = flag.Int("ops", 0, "lookups per goroutine for -fig parallel (0 = default)")
		strat    = flag.String("strategy", "all", "crack strategy for -fig stochastic (standard,ddr,all)")
		wload    = flag.String("workload", "all", "query pattern for -fig stochastic (random,sequential,reverse,zoomin,periodic,all)")
		queries  = flag.Int("queries", 0, "queries per stochastic cell (0 = default)")
		sel      = flag.Float64("sel", 0, "stochastic per-query selectivity (0 = default)")
		addr     = flag.String("addr", "", "with -exec: address of a running cracksrv")
		execCmd  = flag.String("exec", "", "with -addr: run one statement or /meta command, print the reply, exit")
	)
	flag.Parse()

	// -addr -exec is the one-shot client; figure flags mean nothing there.
	if *addr != "" || *execCmd != "" {
		if *addr == "" || *execCmd == "" {
			fmt.Fprintln(os.Stderr, "crackbench: -addr and -exec go together")
			os.Exit(1)
		}
		if *fig != "all" || *parallel || *k != 0 || *ops != 0 || *summary {
			fmt.Fprintln(os.Stderr, "crackbench: -fig/-parallel/-k/-ops/-summary do not apply to -exec")
			os.Exit(1)
		}
		if err := execOnce(*addr, *execCmd); err != nil {
			fmt.Fprintln(os.Stderr, "crackbench:", err)
			os.Exit(1)
		}
		return
	}

	target := *fig
	if *parallel {
		target = "parallel"
	}
	// A named strategy or workload is a request for the robustness
	// matrix; don't make the user also spell -fig stochastic. With an
	// explicit different figure the flags would be silently ignored —
	// reject that instead of mislabeling standard-cracking numbers.
	// (-workload also parameterizes the shard scaling figure.)
	if *strat != "all" {
		switch target {
		case "all":
			target = "stochastic"
		case "stochastic", "recovery", "sideways":
		default:
			fmt.Fprintf(os.Stderr, "crackbench: -strategy only applies to -fig stochastic, recovery or sideways, not -fig %s\n", target)
			os.Exit(1)
		}
	}
	if *wload != "all" {
		switch target {
		case "all":
			target = "stochastic"
		case "stochastic", "shard":
		default:
			fmt.Fprintf(os.Stderr, "crackbench: -workload only applies to -fig stochastic or shard, not -fig %s\n", target)
			os.Exit(1)
		}
	}
	// -queries/-sel don't imply a figure ("-fig all -sel 0.05" tunes the
	// stochastic and shard legs of the full sweep).
	switch target {
	case "stochastic", "shard", "recovery", "sideways", "batch", "convergence", "autotune", "granules", "all":
	default:
		if *queries != 0 || *sel != 0 {
			fmt.Fprintf(os.Stderr, "crackbench: -queries/-sel only apply to the stochastic, shard, recovery, sideways, batch, convergence, autotune and granules figures, not -fig %s\n", target)
			os.Exit(1)
		}
	}
	cfg := benchConfig{
		n: *n, k: *k, seed: *seed, summary: *summary, budget: *budget,
		ops: *ops, strategy: *strat, workload: *wload, queries: *queries, sel: *sel,
	}
	if err := run(target, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "crackbench:", err)
		os.Exit(1)
	}
}

// benchConfig carries the flag values to the figure dispatch.
type benchConfig struct {
	n, k     int
	seed     int64
	summary  bool
	budget   time.Duration
	ops      int
	strategy string
	workload string
	queries  int
	sel      float64
}

func run(fig string, cfg benchConfig) error {
	n, k, seed, summary, budget, ops := cfg.n, cfg.k, cfg.seed, cfg.summary, cfg.budget, cfg.ops
	emit := func(f figures.Figure, err error) error {
		if err != nil {
			return err
		}
		if summary {
			fmt.Println(f.Summary())
			return nil
		}
		return f.WriteTSV(os.Stdout)
	}

	runOne := func(id string) error {
		switch id {
		case "1a", "1b", "1c":
			mode := map[string]figures.Fig1Mode{
				"1a": figures.Fig1Materialize,
				"1b": figures.Fig1Print,
				"1c": figures.Fig1Count,
			}[id]
			return emit(figures.Fig1(mode, figures.Fig1Config{N: n, Seed: seed}))
		case "2":
			return emit(figures.Fig2(figures.Fig2Config{N: n, K: k, Seed: seed}), nil)
		case "3":
			return emit(figures.Fig3(figures.Fig2Config{N: n, K: k, Seed: seed}), nil)
		case "5":
			out, err := figures.Fig5(seed)
			fmt.Print(out)
			return err
		case "8":
			return emit(figures.Fig8(figures.Fig8Config{K: k}), nil)
		case "9":
			return emit(figures.Fig9(figures.Fig9Config{N: n, Budget: budget, Seed: seed}))
		case "10":
			return emit(figures.Fig10(figures.Fig10Config{N: n, K: k, Seed: seed}))
		case "11":
			return emit(figures.Fig11(figures.Fig11Config{N: n, K: k, Seed: seed}))
		case "hiking":
			return emit(figures.FigHiking(figures.FigHikingConfig{N: n, K: k, Seed: seed}))
		case "parallel":
			return emit(figures.FigParallel(figures.FigParallelConfig{N: n, OpsPerG: ops, Seed: seed}))
		case "stochastic":
			// -queries wins; the generic -k sequence-length override is
			// honored as a fallback so "-fig stochastic -k 2048" means
			// what it says.
			nq := cfg.queries
			if nq == 0 {
				nq = k
			}
			scfg := figures.FigStochasticConfig{N: n, K: nq, Seed: seed, Selectivity: cfg.sel}
			if cfg.strategy != "all" {
				scfg.Strategies = []string{cfg.strategy}
			}
			if cfg.workload != "all" {
				scfg.Workloads = []string{cfg.workload}
			}
			return emit(figures.FigStochastic(scfg))
		case "shard":
			nq := cfg.queries
			if nq == 0 {
				nq = k
			}
			shcfg := figures.FigShardConfig{N: n, K: nq, Seed: seed, Selectivity: cfg.sel}
			if cfg.workload != "all" {
				shcfg.Workloads = []string{cfg.workload}
			}
			return emit(figures.FigShard(shcfg))
		case "recovery":
			nq := cfg.queries
			if nq == 0 {
				nq = k
			}
			rcfg := figures.FigRecoveryConfig{N: n, K: nq, Seed: seed, Selectivity: cfg.sel}
			if cfg.strategy != "all" {
				rcfg.Strategy = cfg.strategy
			}
			return emit(figures.FigRecovery(rcfg))
		case "sideways":
			nq := cfg.queries
			if nq == 0 {
				nq = k
			}
			swcfg := figures.FigSidewaysConfig{N: n, K: nq, Seed: seed, Selectivity: cfg.sel}
			if cfg.strategy != "all" {
				swcfg.Strategy = cfg.strategy
			}
			return emit(figures.FigSideways(swcfg))
		case "batch":
			nq := cfg.queries
			if nq == 0 {
				nq = k
			}
			return emit(figures.FigBatch(figures.FigBatchConfig{N: n, K: nq, Seed: seed}))
		case "convergence":
			return emit(figures.FigConvergence(figures.FigConvergenceConfig{N: n, Queries: cfg.queries, Seed: seed}))
		case "autotune":
			nq := cfg.queries
			if nq == 0 {
				nq = k
			}
			return emit(figures.FigAutotune(figures.FigAutotuneConfig{N: n, K: nq, Seed: seed, Selectivity: cfg.sel}))
		case "granules":
			nq := cfg.queries
			if nq == 0 {
				nq = k
			}
			return emit(figures.FigGranules(figures.FigGranulesConfig{N: n, K: nq, Seed: seed, Selectivity: cfg.sel}))
		case "sql":
			res, err := figures.SQLLevel(figures.SQLLevelConfig{N: n, Seed: seed})
			if err != nil {
				return err
			}
			fmt.Print(res)
			return nil
		default:
			return fmt.Errorf("unknown figure %q (want 1a,1b,1c,2,3,5,8,9,10,11,hiking,sql,parallel,stochastic,shard,recovery,sideways,batch,convergence,autotune,granules,all)", id)
		}
	}

	if fig == "all" {
		for _, id := range []string{"1a", "1b", "1c", "2", "3", "5", "8", "9", "10", "11", "hiking", "sql", "parallel", "stochastic", "shard", "recovery", "sideways", "batch", "convergence", "autotune", "granules"} {
			fmt.Printf("=== figure %s ===\n", id)
			if err := runOne(id); err != nil {
				return fmt.Errorf("figure %s: %w", id, err)
			}
			fmt.Println()
		}
		return nil
	}
	return runOne(fig)
}
