package expt

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Every figure is a sweep of independent simulation cells — each cell
// owns a private sim.Engine and seed, consumes no state from its
// neighbors, and differs only in its population, discipline, or fault
// plan. runCells is the one place that exploits this: it executes the
// cells on a worker pool and reassembles every observable side effect
// (trace events, invariant violations, sampled metrics) in fixed cell
// order, so a parallel sweep is byte-identical to the serial one at
// any worker count. Numeric results flow back through the closure's
// own slices, indexed by cell, which parallel execution never
// reorders.

// workers resolves Options.Parallel: 0 means GOMAXPROCS, 1 the legacy
// serial path, anything larger an explicit worker count.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// cellRegistry resolves the registry one sweep cell instruments.
// Sim cells get a private registry (merged into Obs in cell order —
// the determinism contract; see obs.go); live cells share Obs
// directly, so a mid-run HTTP exporter sees samples as they arrive.
func (o Options) cellRegistry() *obs.Registry {
	if o.Obs == nil {
		return nil
	}
	if o.Backend == BackendLive {
		return o.Obs
	}
	return obs.New()
}

// progressReporter tracks sweep completion for Options.Progress: cells
// done plus cumulative engine events, read from each finished cell's
// registry (or the shared live registry).
type progressReporter struct {
	opt    Options
	total  int
	done   atomic.Int64
	events atomic.Int64
}

func (pr *progressReporter) cellDone(reg *obs.Registry) {
	if pr == nil || pr.opt.Progress == nil {
		return
	}
	d := int(pr.done.Add(1))
	var ev int64
	if pr.opt.Backend == BackendLive {
		// Shared registry: the family total is already cumulative.
		ev = int64(pr.opt.Obs.CurrentTotal(MEngineEvents))
		pr.events.Store(ev)
	} else {
		ev = pr.events.Add(int64(reg.CurrentTotal(MEngineEvents)))
	}
	pr.opt.Progress(d, pr.total, ev)
}

// runCells executes cells 0..n-1 via run, which must write its results
// into per-cell slots and touch shared sinks only through the tracer,
// recorder, and registry of the cell it is handed (each may be nil,
// mirroring opt.Trace, opt.Check, and opt.Obs); run fills in the rest
// of the cell (label, seed, window, plan) before running a scenario in
// it.
//
// With one worker the cells run in the calling goroutine against
// opt.Trace and opt.Check directly — the serial path, kept as the
// reference the merge path is compared against
// (TestRunnerParallelMatchesSerial, cmd/gridbench's
// TestParallelDeterminism). With more, each cell gets a private tracer
// and recorder; after every cell finishes, tracers are merged
// (trace.Tracer.Merge) and violations appended in cell order,
// reproducing the serial byte stream. Metric
// registries are per-cell on the sim backend in BOTH paths and merged
// in cell order immediately (serial) or after the pool drains
// (parallel) — the same Merge sequence either way, so dumps are
// byte-identical at any worker count. A panic in any cell is re-raised
// here, lowest cell first, after the pool drains.
func runCells(opt Options, n int, run func(i int, c cell)) {
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	pr := &progressReporter{opt: opt, total: n}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			reg := opt.cellRegistry()
			run(i, cell{opt: opt, tr: opt.Trace, rec: opt.Check, reg: reg})
			if reg != nil && reg != opt.Obs {
				opt.Obs.Merge(reg)
			}
			pr.cellDone(reg)
		}
		return
	}

	trs := make([]*trace.Tracer, n)
	recs := make([]*chaos.Recorder, n)
	regs := make([]*obs.Registry, n)
	for i := 0; i < n; i++ {
		if opt.Trace != nil {
			trs[i] = trace.New()
		}
		if opt.Check != nil {
			recs[i] = &chaos.Recorder{}
		}
		regs[i] = opt.cellRegistry()
	}

	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					run(i, cell{opt: opt, tr: trs[i], rec: recs[i], reg: regs[i]})
				}()
				if panics[i] == nil {
					pr.cellDone(regs[i])
				}
			}
		}()
	}
	wg.Wait()

	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for i := 0; i < n; i++ {
		if opt.Trace != nil {
			opt.Trace.Merge(trs[i])
		}
		if opt.Check != nil && recs[i] != nil {
			for _, v := range recs[i].Violations {
				opt.Check.Add(v)
			}
		}
		if regs[i] != nil && regs[i] != opt.Obs {
			opt.Obs.Merge(regs[i])
		}
	}
}
