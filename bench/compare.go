package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the contract with the driver. The
// bounds live there and nowhere else.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// judge gives the verdict on one end-to-end metric of one workload: is
// the after set's median worse than the before set's by more than the
// bound, as a share of the before set's? A spread wider than the bound
// cannot resolve a change of the bound's size, so the verdict is then
// "unresolved", unless every after run beats every before run.
func judge(before, after series, better string, bound float64) string {
	if before.Median == 0 {
		return "unresolved"
	}
	worse := (after.Median - before.Median) / before.Median
	if better == "higher" {
		worse = -worse
	}
	switch {
	case max(before.Spread, after.Spread) > bound:
		if allBetter(before.Values, after.Values, better) {
			return "ok"
		}
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every after value beats every before value.
func allBetter(before, after []float64, better string) bool {
	if len(before) == 0 || len(after) == 0 {
		return false
	}
	b, a := sorted(before), sorted(after)
	if better == "higher" {
		return a[0] > b[len(b)-1]
	}
	return a[len(a)-1] < b[0]
}

// runCompare prints, per workload and end-to-end metric, both medians,
// the relative change with its base, the bound and the verdict; count
// metrics must match exactly. The exit code is non-zero on any
// regression, any count that changed, or any rise in failed operations.
func runCompare(beforePath, afterPath string, stdout, stderr io.Writer) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	before, err := readSet(beforePath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	after, err := readSet(afterPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	bad := 0
	fmt.Fprintf(stdout, "%-15s %-15s %14s %14s %22s %7s  %s\n", "workload", "metric", "before", "after", "change (of before)", "bound", "verdict")
	for _, w := range bf.Workloads {
		bw, aw := before.Workloads[w.Name], after.Workloads[w.Name]
		if bw == nil || aw == nil {
			bad++
			fmt.Fprintf(stdout, "%-15s missing from a result file\n", w.Name)
			continue
		}
		for _, d := range bf.EndToEnd {
			b, a := bw.EndToEnd[d.Name], aw.EndToEnd[d.Name]
			verdict := judge(b, a, d.Better, d.Bound)
			if verdict == "regressed" {
				bad++
			}
			fmt.Fprintf(stdout, "%-15s %-15s %14.6g %14.6g %+13.2f%% of %-6.4g %6.0f%%  %s\n",
				w.Name, d.Name, b.Median, a.Median, 100*(a.Median-b.Median)/b.Median, b.Median, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			if !d.count {
				continue
			}
			b, a := bw.PerLayer[d.name], aw.PerLayer[d.name]
			if b.Median != a.Median {
				bad++
				fmt.Fprintf(stdout, "%-15s %-31s %14.6g %14.6g  count changed\n", w.Name, d.name, b.Median, a.Median)
			}
		}
		if aw.Failed > bw.Failed {
			bad++
			fmt.Fprintf(stdout, "%-15s failed operations rose from %d (of %d) to %d (of %d)\n",
				w.Name, bw.Failed, bw.Attempted, aw.Failed, aw.Attempted)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression")
	return 0
}
