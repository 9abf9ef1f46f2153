package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// series is one metric's values over a set's runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/median, the number the acceptance rule reads.
	Spread float64 `json:"spread"`
}

func newSeries(unit string, values []float64) series {
	q1, q3 := quartiles(values)
	return series{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3, Spread: spread(values)}
}

// workloadSet is one workload's results over a set's runs.
type workloadSet struct {
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	NProc     int                     `json:"nproc"`
	Go        string                  `json:"go"`
	Seconds   float64                 `json:"seconds"`
	Seeds     []int64                 `json:"seeds"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// runSet runs every workload the way the driver does, one process per
// run: `runs` untraced runs each on its own seed, interleaved round-
// robin across workloads so that slow drift of the host falls on all
// alike, then one traced run each.
func runSet(seed int64, seconds float64, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	set := resultSet{NProc: runtime.NumCPU(), Go: runtime.Version(), Seconds: seconds, Workloads: map[string]*workloadSet{}}
	for _, w := range workloads {
		set.Workloads[w.name] = &workloadSet{EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
	}
	exit := 0
	// one runs one workload once in a process of its own and passes its
	// metric lines through.
	one := func(name string, seed int64, traced int) *result {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s seed %d: no result (%v): %v\n", name, seed, runErr, err)
			exit = 1
			return nil
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		ws := set.Workloads[name]
		ws.Attempted += res.Attempted
		ws.Failed += res.Failed
		if !res.Correct || runErr != nil {
			fmt.Fprintf(stderr, "bench: %s seed %d: FAILED (%d of %d)\n", name, seed, res.Failed, res.Attempted)
			exit = 1
		}
		return &res
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	for r := 0; r < runs; r++ {
		set.Seeds = append(set.Seeds, seed+int64(r))
		for _, w := range workloads {
			res := one(w.name, seed+int64(r), 0)
			if res == nil {
				continue
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	for _, w := range workloads {
		ws := set.Workloads[w.name]
		for _, d := range endToEnd {
			ws.EndToEnd[d.name] = newSeries(d.unit, values[w.name][d.name])
		}
		if res := one(w.name, seed, 1); res != nil {
			for _, d := range perLayer {
				ws.PerLayer[d.name] = newSeries(d.unit, []float64{res.Metrics[d.name].Value})
			}
		}
	}

	fmt.Fprintf(stdout, "\n%-15s %-15s %14s %14s %14s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for i := range workloads {
		for _, d := range endToEnd {
			s := set.Workloads[workloads[i].name].EndToEnd[d.name]
			fmt.Fprintf(stdout, "%-15s %-15s %14.6g %14.6g %14.6g %7.2f%%  %s\n",
				workloads[i].name, d.name, s.Median, s.Q1, s.Q3, 100*s.Spread, s.Unit)
		}
	}
	doc, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if out != "" {
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "results written to %s\n", filepath.Clean(out))
	} else {
		fmt.Fprintf(stdout, "%s\n", doc)
	}
	return exit
}
