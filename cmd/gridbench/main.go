// Command gridbench regenerates the figures of "The Ethernet Approach
// to Grid Computing" (Thain & Livny, HPDC 2003) from the simulated
// substrates in this repository.
//
// Usage:
//
//	gridbench [-fig NAME] [-seed S] [-scale F] [-format table|tsv]
//	          [-backend sim|live|gridd] [-timescale F] [-gridd-addr URL]
//	          [-parallel N] [-chaos PLAN] [-chaos-seed S] [-check]
//	          [-trace FILE] [-trace-format jsonl|chrome] [-trace-summary]
//	          [-trace-quantiles] [-metrics FILE]
//	          [-metrics-format jsonl|csv|prom] [-obs-addr ADDR] [-progress]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// -fig names one row of the figure table in figures.go: the paper's
// Figures 1 to 7, this repository's ablations and extension
// experiments, and the engine sweep (`gridbench -h` lists the names; an
// unknown name is answered with every name and title). Without -fig,
// the rows of the default run are produced in table order. Output is
// plain aligned text (or TSV for plotting): sweep tables, or time
// series tables for the timeline figures. The engine sweep's
// deterministic table is followed by per-cell "# timing:" lines
// reporting wall-clock and events/sec — the engine-throughput numbers
// BENCH_expt.json records.
//
// -chaos regenerates the figures under a named fault-injection plan
// (see internal/chaos; plans: bursts, crashes, dup-storm, flap,
// latency, mixed, part-flap, squeeze, stuck-holder, res-flap),
// deterministically scheduled from -chaos-seed. -check runs
// the invariant-checker suite alongside every figure and fails the run
// if any safety or liveness property is violated.
//
// -backend selects the execution engine: "sim" (the default) is the
// deterministic discrete-event simulator, whose output is byte-for-byte
// reproducible per seed; "live" runs the identical scenarios on real
// goroutines and wall-clock timers under compressed time (-timescale
// virtual seconds per real second, default 1000). Live runs exercise
// real scheduler interleavings, so their numbers vary run to run —
// compare them to sim output with the tolerance-band methodology in
// EXPERIMENTS.md, not byte-wise. "gridd" runs figures 1, 2, 3 and la
// with the FD table on a gridd daemon (see cmd/gridd), every operation
// on it an HTTP request through the daemon's JSON codec. By default
// every cell runs on the simulator with its own daemon on the cell's
// engine, reached in process, and prints what the sim backend prints;
// -gridd-addr points the cells at a running daemon across a real
// socket instead, from a live engine (-timescale default 25).
//
// -parallel runs the sweep figures' independent simulation cells on N
// workers (0, the default, means GOMAXPROCS; 1 forces the serial
// path). Cells are reassembled in fixed order, so output is
// byte-identical at every setting. -cpuprofile and -memprofile write
// pprof profiles of the run for `go tool pprof`.
//
// -trace records every client's event timeline (attempts, collisions,
// carrier senses, backoffs, resource holds, injected faults) to FILE:
// line-delimited JSON by default, or — with -trace-format chrome — the
// Chrome trace-event format loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, with one process per discipline and one thread per
// client. -trace-summary appends a per-discipline collision/backoff
// accounting table to the normal output, and -trace-quantiles a
// per-discipline span-distribution table (holding, backoff, cs-wait:
// count/min/mean/P50/P95/P99/max). Figures that plot a single
// discipline are additionally re-run under the remaining disciplines
// on the same seed, so the trace compares all three head-to-head;
// tracing never changes the figures themselves.
//
// -metrics arms the flight recorder (see internal/obs): engine, lease,
// and carrier instruments are sampled every 5 s of the backend clock
// (Figures 2 and 3 are read from these samples) and dumped to FILE as
// line-delimited JSON, CSV, or Prometheus text (-metrics-format). On
// the sim backend the dump is byte-identical per seed at every
// -parallel setting; on the live backend it inherits the live run's
// scheduling noise. -obs-addr (wall-clock runs only: live, or gridd
// with -gridd-addr) additionally serves the registry over HTTP while
// the run is in flight: /metrics (Prometheus text), /healthz, and
// net/http/pprof. -progress prints a one-line sweep progress report to
// stderr about once a second.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI with explicit arguments and streams, so tests
// can drive it without touching process globals.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to regenerate ("+strings.Join(figureNames(func(*figure) bool { return true }), ", ")+"); empty means "+strings.Join(figureNames(func(f *figure) bool { return !f.extra }), ", "))
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "scale factor for windows and populations (1.0 = paper)")
	format := fs.String("format", "table", "output format: table or tsv")
	backend := fs.String("backend", expt.BackendSim, "execution backend: "+strings.Join(expt.Backends(), ", "))
	timescale := fs.Float64("timescale", 0, "live backend, and gridd with -gridd-addr: virtual seconds per real second (0 = default "+fmt.Sprint(expt.DefaultTimescale)+" live, "+fmt.Sprint(expt.GriddTimescale)+" gridd)")
	chaosName := fs.String("chaos", "", "fault-injection plan to run the figures under ("+strings.Join(chaos.Names(), ", ")+")")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for the fault plan's schedule (default: -seed)")
	check := fs.Bool("check", false, "run the invariant-checker suite alongside every figure")
	traceOut := fs.String("trace", "", "record an event trace of every client to this file")
	traceFormat := fs.String("trace-format", "jsonl", "trace file format: jsonl or chrome (Perfetto-loadable)")
	traceSummary := fs.Bool("trace-summary", false, "append a per-discipline collision/backoff accounting table")
	traceQuantiles := fs.Bool("trace-quantiles", false, "append a per-discipline span-distribution table (P50/P95/P99)")
	metricsOut := fs.String("metrics", "", "sample the flight recorder on the backend clock and dump it to this file")
	metricsFormat := fs.String("metrics-format", "jsonl", "metrics dump format: jsonl, csv, or prom")
	obsAddr := fs.String("obs-addr", "", "live backend, or gridd with -gridd-addr: serve /metrics, /healthz, and pprof on this address during the run")
	griddAddr := fs.String("gridd-addr", "", "gridd backend only: base URL of a running gridd daemon, reached from a live engine (empty: each cell's own daemon, in process on the simulator)")
	progress := fs.Bool("progress", false, "print one-line sweep progress to stderr about once a second")
	parallel := fs.Int("parallel", 0, "worker count for independent simulation cells (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *format != "table" && *format != "tsv" {
		fmt.Fprintf(stderr, "gridbench: unknown format %q (want table or tsv)\n", *format)
		return 2
	}
	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		fmt.Fprintf(stderr, "gridbench: unknown trace format %q (want jsonl or chrome)\n", *traceFormat)
		return 2
	}
	if !expt.KnownBackend(*backend) {
		fmt.Fprintf(stderr, "gridbench: unknown backend %q (want %s)\n", *backend, strings.Join(expt.Backends(), ", "))
		return 2
	}
	if *timescale < 0 {
		fmt.Fprintf(stderr, "gridbench: negative timescale %v (want > 0, or 0 for the default)\n", *timescale)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "gridbench: negative parallel %d (want 0 for GOMAXPROCS, or a worker count)\n", *parallel)
		return 2
	}
	if *metricsFormat != "jsonl" && *metricsFormat != "csv" && *metricsFormat != "prom" {
		fmt.Fprintf(stderr, "gridbench: unknown metrics format %q (want jsonl, csv, or prom)\n", *metricsFormat)
		return 2
	}
	if *obsAddr != "" && (*backend == expt.BackendSim || *backend == expt.BackendGridd && *griddAddr == "") {
		fmt.Fprintf(stderr, "gridbench: -obs-addr needs a wall-clock backend (the sim backend finishes in virtual time; dump it with -metrics instead)\n")
		return 2
	}
	if *griddAddr != "" && *backend != expt.BackendGridd {
		fmt.Fprintf(stderr, "gridbench: -gridd-addr needs -backend=gridd\n")
		return 2
	}
	figs, err := selectFigures(*fig, cmp.Or(*backend, expt.BackendSim))
	if err != nil {
		fmt.Fprintf(stderr, "gridbench: %v\n", err)
		return 2
	}
	r := &renderer{w: stdout, stderr: stderr, tsv: *format == "tsv"}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "gridbench: %v\n", err)
				return
			}
			runtime.GC() // report live allocations, not GC noise
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "gridbench: %v\n", err)
			}
			f.Close()
		}()
	}

	opt := expt.Options{Seed: *seed, Scale: *scale, Parallel: *parallel, Backend: *backend, Timescale: *timescale, GriddURL: *griddAddr}
	if *metricsOut != "" || *obsAddr != "" || *progress {
		// -progress needs the recorder too: the events/sec column comes
		// from the engine event counters it samples.
		opt.Obs = obs.New()
	}
	if *progress {
		opt.Progress = progressPrinter(stderr)
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, opt.Obs, func() map[string]string {
			return map[string]string{"backend": *backend, "seed": fmt.Sprint(*seed)}
		})
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "gridbench: observability endpoint on http://%s (/metrics, /healthz, /debug/pprof/)\n", srv.Addr())
	}
	if *chaosName != "" {
		cs := *chaosSeed
		if cs == 0 {
			cs = *seed
		}
		plan, err := chaos.Preset(*chaosName, cs)
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 2
		}
		opt.Chaos = plan
		r.chaos = fmt.Sprintf("# chaos: plan %s, seed %d\n", plan.Name, plan.Seed)
	}
	if *check {
		opt.Check = &chaos.Recorder{}
	}
	if *traceOut != "" || *traceSummary || *traceQuantiles {
		opt.Trace = trace.New()
		scenario := "all"
		if *fig != "" {
			scenario = "fig" + *fig
		}
		m := trace.Meta{Seed: *seed, Scenario: scenario}
		if opt.Chaos != nil {
			m.Plan, m.PlanSeed = opt.Chaos.Name, opt.Chaos.Seed
		}
		opt.Trace.SetMeta(m)
	}

	for _, f := range figs {
		if err := runFigure(r, f, opt); err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 1
		}
	}
	if opt.Check != nil {
		if opt.Check.Ok() {
			fmt.Fprintf(r.w, "# invariants: ok\n")
		} else {
			fmt.Fprintf(stderr, "gridbench: %v\n", opt.Check.Err())
			return 1
		}
	}
	if *traceSummary || *traceQuantiles {
		sums := trace.Analyze(opt.Trace)
		if *traceSummary {
			fmt.Fprintf(r.w, "==== Trace summary ====\n")
			if r.chaos != "" {
				io.WriteString(r.w, r.chaos)
			}
			if err := trace.WriteSummary(r.w, sums); err != nil {
				fmt.Fprintf(stderr, "gridbench: %v\n", err)
				return 1
			}
		}
		if *traceQuantiles {
			fmt.Fprintf(r.w, "==== Trace quantiles ====\n")
			if r.chaos != "" {
				io.WriteString(r.w, r.chaos)
			}
			if err := trace.WriteQuantiles(r.w, sums); err != nil {
				fmt.Fprintf(stderr, "gridbench: %v\n", err)
				return 1
			}
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, *traceFormat, opt.Trace); err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 1
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, *metricsFormat, opt.Obs); err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 1
		}
	}
	return r.exit
}

// progressPrinter returns an expt.Options.Progress callback that
// prints a one-line sweep report to w: cells done, sampled engine
// events per wall-clock second, and a completion-rate ETA. Reports are
// throttled to about one a second, except each sweep's final cell.
// The callback is invoked from worker goroutines, so it serializes
// behind its own mutex.
func progressPrinter(w io.Writer) func(done, total int, events int64) {
	var mu sync.Mutex
	var start, last time.Time
	lastDone := 0
	return func(done, total int, events int64) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if start.IsZero() || done < lastDone {
			start = now // first cell of a new sweep
			last = time.Time{}
		}
		lastDone = done
		if done < total && now.Sub(last) < time.Second {
			return
		}
		last = now
		elapsed := now.Sub(start)
		if elapsed <= 0 {
			elapsed = time.Millisecond
		}
		perCell := elapsed / time.Duration(done)
		eta := time.Duration(total-done) * perCell
		fmt.Fprintf(w, "gridbench: %d/%d cells, %.3g events/s, eta %s\n",
			done, total, float64(events)/elapsed.Seconds(), eta.Round(time.Second))
	}
}

// writeMetrics exports the flight-recorder registry to path in the
// chosen format.
func writeMetrics(path, format string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		err = reg.WriteCSV(f)
	case "prom":
		err = reg.WriteProm(f)
	default:
		err = reg.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTrace exports the recorded trace to path in the chosen format.
func writeTrace(path, format string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if format == "chrome" {
		err = t.WriteChrome(f)
	} else {
		err = t.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// renderer writes figure banners and tables in the selected format.
type renderer struct {
	w      io.Writer
	stderr io.Writer
	tsv    bool
	chaos  string // banner line naming the armed fault plan, if any
	exit   int
	buffer *expt.BufferSweep // Figures 4 and 5 share one run
}

// bufferSweep runs the buffer sweep on first use.
func (r *renderer) bufferSweep(opt expt.Options) *expt.BufferSweep {
	if r.buffer == nil {
		r.buffer = expt.RunBufferSweep(opt)
	}
	return r.buffer
}

// header prints a figure banner.
func (r *renderer) header(label, title, sub string) {
	fmt.Fprintf(r.w, "==== Figure %s: %s ====\n", label, title)
	fmt.Fprintf(r.w, "# %s\n", sub)
	if r.chaos != "" {
		io.WriteString(r.w, r.chaos)
	}
}

// tsvWriterTo is satisfied by the metrics tables.
type tsvWriterTo interface {
	WriteTSVTo(w io.Writer) (int64, error)
}

// show prints the parts in order: tables in the selected format, and
// strings as lines of their own.
func (r *renderer) show(parts ...any) {
	for _, p := range parts {
		if t, ok := p.(io.WriterTo); ok {
			r.dump(t)
		} else {
			fmt.Fprintln(r.w, p)
		}
	}
}

// dump renders any table-like value in the selected format.
func (r *renderer) dump(t io.WriterTo) {
	var err error
	if tv, ok := t.(tsvWriterTo); ok && r.tsv {
		_, err = tv.WriteTSVTo(r.w)
	} else {
		_, err = t.WriteTo(r.w)
	}
	if err != nil {
		fmt.Fprintf(r.stderr, "gridbench: %v\n", err)
		r.exit = 1
	}
}
