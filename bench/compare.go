package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one (metric, workload) pair: b against a, by the bound
// BENCHMARK.json fixes. When either file's own quartile spread exceeds
// the bound the runs cannot resolve a change of that size.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma) // share of a's median by which b is higher
	if better == "higher" {
		worse = -worse
	}
	switch {
	case quartileSpread(a) > bound || quartileSpread(b) > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "within", worse
}

// compareFiles prints one row per (end-to-end metric, workload) and
// returns the exit code: 1 when any pair regressed.
func compareFiles(pathA, pathB string) int {
	var a, b resultFile
	var spec benchmarkSpec
	ws, err := moduleRoot()
	if err == nil {
		err = readJSON(filepath.Join(ws, "BENCHMARK.json"), &spec)
	}
	if err == nil {
		err = readJSON(pathA, &a)
	}
	if err == nil {
		err = readJSON(pathB, &b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	fmt.Printf("%-17s %-16s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "b worse", "spread a", "spread b", "verdict")
	for _, w := range names {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wb == nil {
			fmt.Printf("%-17s missing from %s\n", w, pathB)
			code = 1
			continue
		}
		for _, mt := range spec.EndToEnd {
			va, vb := wa.Values[mt.Name], wb.Values[mt.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-17s %-16s not in both files\n", w, mt.Name)
				continue
			}
			v, worse := verdict(va, vb, mt.Better, mt.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-17s %-16s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%  %s (bound %.0f%%)\n",
				w, mt.Name, median(va), median(vb), 100*worse, 100*quartileSpread(va), 100*quartileSpread(vb), v, 100*mt.Bound)
		}
	}
	return code
}
