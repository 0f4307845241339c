// Command bench is the repository's benchmark: four wire-level workloads
// against a cracksrv child process, a correctness oracle on every
// answer, and a traced run that attributes wire latency to layers. See
// README.md in this directory.
//
//	go run -C bench . -seed 42 -out set.json             # all workloads, end to end
//	go run -C bench . -trace 1 -out trace.json           # the layer ladder
//	go run -C bench . -compare a.json b.json             # regression check
//	go run -C bench . -workload steady_scalar -seed 7 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command expands to; it ends
// with one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runInfo records where and how a result file was produced.
type runInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Runs       int    `json:"runs"`
	Seconds    int    `json:"seconds"`
	Rows       int    `json:"rows"`
	Clients    int    `json:"clients"`
	Trace      int    `json:"trace"`
}

// workloadResult is one workload's entry in a result file: the metrics
// of every run made (one per seed), so a file carries its own spread.
type workloadResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Units     map[string]string    `json:"units"`
	Samples   map[string]int       `json:"samples"`
	Values    map[string][]float64 `json:"values"`
	Ladder    []ladderTable        `json:"ladder,omitempty"` // traced runs: the last seed's tables
}

type resultFile struct {
	Info      runInfo                    `json:"info"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// driverLine is the object the benchmark contract wants on the last
// line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 30, "measured phase of the fixed-duration workloads")
		trace        = flag.Int("trace", 0, "1: traced run (layer ladder, per-layer metrics); 0: end-to-end metrics")
		runs         = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out          = flag.String("out", "", "write the result file here")
		spans        = flag.String("spans", "", "with -trace 1: write the raw spans here")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		smoke        = flag.Bool("smoke", false, "small sizes and 1 s phases (what go test runs)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	cfg := config{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0,
		runs: *runs, out: *out, spans: *spans, sz: fullSizes,
	}
	if *smoke {
		cfg.sz, cfg.seconds = smokeSizes, 1
	}
	ok, err := execute(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	runs     int
	out      string
	spans    string
	sz       sizes
	corrupt  bool // tests only: give the oracle one wrong expected count
}

// execute runs the configured workloads and reports. ok is false when
// any answer was wrong (the process then exits non-zero).
func execute(cfg config) (ok bool, err error) {
	todo := specs
	if cfg.workload != "" {
		sp, found := specByName(cfg.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		todo = []spec{sp}
	}
	ws, err := newWorkspace()
	if err != nil {
		return false, err
	}
	defer ws.close()
	sig := make(chan os.Signal, 1)
	finished := make(chan struct{})
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-sig: // interrupted: leave no child and no temp dir behind
			ws.close()
			os.Exit(130)
		case <-finished:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(finished)
	}()

	// The client decodes tens of thousands of responses a second, and how
	// often the load generator's collector runs depends on how much live
	// heap this process happens to hold: a run's first server instance
	// met a collection every few megabytes and measured a quarter slower
	// than its third. A ballast (never touched, so never resident) pins
	// the live heap, and with it the collection cadence.
	ballast := make([]byte, 512<<20)
	defer runtime.KeepAlive(ballast)

	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	e := &env{ws: ws, sz: cfg.sz, seconds: time.Duration(cfg.seconds) * time.Second, clients: clients, setups: 3, corrupt: cfg.corrupt}
	if cfg.trace {
		e.setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	file := &resultFile{
		Info: runInfo{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: gitCommit(ws.root), Seed: cfg.seed, Runs: cfg.runs, Seconds: cfg.seconds,
			Rows: cfg.sz.rows, Clients: clients, Trace: boolInt(cfg.trace),
		},
		Workloads: map[string]*workloadResult{},
	}
	ok = true
	var last driverLine
	var allSpans []span
	for _, sp := range todo {
		wr := &workloadResult{Correct: true, Units: map[string]string{}, Samples: map[string]int{}, Values: map[string][]float64{}}
		file.Workloads[sp.name] = wr
		for r := 0; r < cfg.runs; r++ {
			seed := cfg.seed + int64(r)
			o, err := e.run(sp, seed, cfg.trace)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
			}
			var m metricSet
			var want []string
			if cfg.trace {
				m = o.workloadSpecific()
				m.add(o.fromCounters())
				lad, err := e.ladder(o)
				if err != nil {
					return false, fmt.Errorf("%s seed %d ladder: %w", sp.name, seed, err)
				}
				m.add(lad.metrics)
				probed, err := e.probes(o)
				if err != nil {
					return false, fmt.Errorf("%s seed %d probes: %w", sp.name, seed, err)
				}
				m.add(probed)
				o.attempted += lad.attempted
				for i := 0; i < lad.failed; i++ {
					o.fail(lad.firstErr)
				}
				lad.print(sp.name)
				wr.Ladder = lad.tables
				allSpans = append(allSpans, lad.spans...)
				want = perLayerNames
			} else {
				m = o.endToEnd()
				want = endToEndNames
			}
			printMetrics(sp.name, m)
			if o.failed > 0 {
				ok = false
				wr.Correct = false
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d checks failed; first: %v\n", sp.name, seed, o.failed, o.attempted, o.firstErr)
			}
			wr.Attempted += o.attempted
			wr.Failed += o.failed
			for name, v := range m {
				wr.Units[name] = v.Unit
				wr.Samples[name] += v.N
				wr.Values[name] = append(wr.Values[name], v.Value)
			}
			// The contract wants exactly the listed metrics, each a number.
			if len(m) != len(want) {
				return false, fmt.Errorf("%s seed %d: the harness reported %d metrics, BENCHMARK.json lists %d", sp.name, seed, len(m), len(want))
			}
			last = driverLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]driverMetric{}}
			for _, name := range want {
				v, have := m[name]
				if !have {
					return false, fmt.Errorf("%s seed %d: the harness did not report %s", sp.name, seed, name)
				}
				last.Metrics[name] = driverMetric{v.Value, v.Unit}
			}
		}
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, file); err != nil {
			return false, err
		}
	}
	if cfg.spans != "" {
		if err := writeJSON(cfg.spans, allSpans); err != nil {
			return false, err
		}
	}
	if cfg.workload != "" {
		line, err := json.Marshal(last)
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
	}
	return ok, nil
}

// gitCommit is best effort: the driver's checkout is not a repository.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
