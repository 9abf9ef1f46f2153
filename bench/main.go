// Command bench is this repository's benchmark. It measures every
// layer from outside: the real cmd/gridd process over a loopback
// socket, the real cmd/gridbench process, and calls into each
// package's public functions. BENCHMARK.json at the repository root
// records the command, the workloads and the metrics; README.md in
// this directory says why each exists and how they interact.
//
//	go run ./bench --workload NAME --seed N --seconds S --trace 0|1
//	go run ./bench [-runs N] [-out FILE]      every workload, untraced then traced
//	go run ./bench -compare a.json b.json     judge two -out files against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: operations attempted and
// failed, failed checks, and values by metric name. A per-layer metric
// the workload does not cross stays absent and is reported as 0.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
	notes             []string // human-readable lines printed before the result
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// problem records a failed check; any problem makes the run incorrect
// and counts as one failed operation.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// env is what every workload runs in.
type env struct {
	ctx     context.Context
	root    string // repository root: where go.mod is
	tmp     string // scratch directory inside the checkout
	gridd   string // built binaries
	bench   string
	seed    int64
	seconds float64
	buildS  float64
}

// dur scales a share of the run's measuring time.
func (e *env) dur(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

type workload struct {
	name string
	run  func(e *env, traced bool) (*outcome, error)
}

// workloads, in BENCHMARK.json's order; why each exists is written
// there, in README.md and above its code.
var workloads = []workload{
	{"gridd-fastpath", runFastpath},
	{"gridd-park", runPark},
	{"gridd-revoke", runRevoke},
	{"gridd-reserve", runReserve},
	{"sim-scale", runSimScale},
	{"sim-figures", runSimFigures},
	{"ftsh-corpus", runFtsh},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, untraced then traced")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	traced := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics in place of the end-to-end ones")
	runs := fs.Int("runs", 1, "without -workload: untraced runs per workload, each on its own seed")
	out := fs.String("out", "", "without -workload: also write the set of results to this file")
	compare := fs.Bool("compare", false, "judge two -out files (before, after) against BENCHMARK.json's bounds")
	expected := fs.Bool("write-expected", false, "regenerate testdata/expected and testdata/ftsh/loop.golden from this checkout (seed 1)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *expected {
		e, err := prepare(1, defaultSeconds)
		if err == nil {
			err = writeExpected(e)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files: before after")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *runs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if *name == "" {
		return runSet(*seed, *seconds, *runs, *out, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
		return 2
	}
	e, err := prepare(*seed, *seconds)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	o, err := w.run(e, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *traced == 1 {
		o.set("loadgen.build_s", e.buildS)
	}
	return report(w.name, o, *traced == 1, stdout, stderr)
}

// report prints one line per metric, then the result object as the last
// line. The exit code is non-zero when any check or operation failed.
func report(name string, o *outcome, traced bool, stdout, stderr io.Writer) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	known := map[string]bool{}
	res := result{Attempted: max(o.attempted, 1), Metrics: map[string]metric{}}
	for _, d := range defs {
		known[d.name] = true
		v, measured := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problem("metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		if measured {
			fmt.Fprintf(stdout, "%s %s %v %s\n", name, d.name, v, d.unit)
		}
	}
	var stray []string
	for n := range o.values {
		if !known[n] {
			stray = append(stray, n)
		}
	}
	sort.Strings(stray)
	for _, n := range stray {
		o.problem("metric %s is not declared", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "bench: %s: FAILED CHECK: %s\n", name, p)
	}
	res.Failed = o.failed + int64(len(o.problems))
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
