// Package expt regenerates every figure in the paper's evaluation (§5).
// Each FigN function builds a fresh simulated universe, runs the paper's
// workload, and returns the same series the figure plots. The package is
// used by cmd/gridbench, by the repository's benchmarks, and by
// integration tests that assert the paper's qualitative shapes.
package expt

import (
	"context"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/lease"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Seed makes the run reproducible; the default is 1.
	Seed int64
	// Scale shrinks time windows and client populations for quick runs
	// (benchmarks, CI). 1.0 reproduces the paper's parameters; 0.1 runs
	// roughly 100× less work. Zero means 1.0.
	Scale float64
	// Chaos, when non-nil, arms the fault plan in every simulation cell
	// the figure runs, so the figure is regenerated under injected
	// faults. The plan's own seed keeps the schedule reproducible.
	Chaos *chaos.Plan
	// Check, when non-nil, runs the invariant-checker suite alongside
	// every cell, appending any violations (see chaos.Recorder.Err).
	Check *chaos.Recorder
	// Trace, when non-nil, records every client's event timeline into
	// one tracer: one trace process per discipline, one thread per
	// client. Tracing is purely observational — it draws no randomness
	// and sleeps for no virtual time — so a traced run produces exactly
	// the figures an untraced run does.
	Trace *trace.Tracer
	// Parallel bounds how many simulation cells a sweep figure runs
	// concurrently: 0 means GOMAXPROCS, 1 the legacy serial path. Every
	// cell is an independent universe, and per-cell traces and
	// violations are reassembled in cell order, so output is
	// byte-identical at any setting (see runner.go).
	Parallel int
	// Backend selects the runtime the cells execute on: BackendSim
	// (the default) is the deterministic virtual-clock engine,
	// BackendLive runs the same scenarios on real goroutines under
	// compressed wall-clock time (see internal/live), and BackendGridd
	// runs them against a real networked gridd daemon over HTTP (see
	// gridd.go). Live and gridd runs are not reproducible; compare
	// them to sim runs with tolerance bands (see diff_test.go), never
	// byte-for-byte.
	Backend string
	// Timescale compresses live-backend time: virtual seconds per real
	// second. Zero means DefaultTimescale. Ignored by the sim backend,
	// whose virtual clock costs no real time at all.
	Timescale float64
	// Obs, when non-nil, arms the flight recorder: every cell samples
	// engine, carrier, and lease observables into the registry on its
	// backend clock (see obs.go). Sampling is read-only — figures are
	// identical with it on or off — and on the sim backend the dump is
	// a pure function of the seed at any Parallel value.
	Obs *obs.Registry
	// ObsInterval is the sampling interval on the backend clock; zero
	// means DefaultObsInterval.
	ObsInterval time.Duration
	// Progress, when non-nil, is called by the sweep runner after each
	// cell completes, with cells done, cells total, and cumulative
	// engine events so far (0 unless Obs is armed). Calls arrive in
	// completion order — not cell order — and, on the worker pool, from
	// worker goroutines; the callback must be safe for that.
	Progress func(done, total int, events int64)
	// GriddURL points the gridd cells at an already-running daemon
	// (see cmd/gridd). Empty means each cell spawns its own in-process
	// daemon on a loopback listener and tears it down afterwards, so
	// the socket-level suites need no external setup.
	GriddURL string
}

// Backend names accepted by Options.Backend and gridbench -backend.
const (
	BackendSim  = "sim"
	BackendLive = "live"
)

// DefaultTimescale is the live backend's default time compression:
// 1 virtual second runs in 1 real millisecond.
const DefaultTimescale = 1000.0

func (o Options) timescale() float64 {
	if o.Timescale <= 0 {
		return DefaultTimescale
	}
	return o.Timescale
}

// newEngine builds the backend one simulation cell runs on.
func (o Options) newEngine(seed int64) core.Backend {
	if o.Backend == BackendLive {
		return live.New(seed, o.timescale())
	}
	return sim.New(seed).RT()
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// scaleN scales a client population, keeping at least 1.
func (o Options) scaleN(n int) int {
	v := int(float64(n) * o.scale())
	if v < 1 {
		v = 1
	}
	return v
}

// scaleD scales a time window.
func (o Options) scaleD(d time.Duration) time.Duration {
	v := time.Duration(float64(d) * o.scale())
	if v < time.Second {
		v = time.Second
	}
	return v
}

// ---------------------------------------------------------------------
// Scenario 1: job submission (Figures 1, 2, 3)
// ---------------------------------------------------------------------

// SubmitWindow is the measurement window of Figure 1 ("jobs submitted in
// five minutes").
const SubmitWindow = 5 * time.Minute

// TimelineWindow is the window of Figures 2 and 3 (thirty minutes).
const TimelineWindow = 30 * time.Minute

// TimelineClients is the client population of Figures 2 and 3.
const TimelineClients = 400

// Fig1Sweep is the submitter counts swept in Figure 1 (x-axis 0–500).
var Fig1Sweep = []int{10, 25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500}

// SubmitCell runs n submitters with the given client and cluster
// configurations for the window — optionally under a fault plan, with
// the invariant suite recording into rec — and returns total jobs
// submitted and schedd crashes. It is the one entry point of the submit
// scenario: Figures 1 to 3, the chaos sweeps and the threshold ablation
// benchmarks are all built from it.
func SubmitCell(opt Options, seed int64, n int, window time.Duration, subCfg condor.SubmitterConfig, clCfg condor.Config, plan *chaos.Plan, rec *chaos.Recorder) (jobs, crashes int64) {
	c := opt.cell("submit/"+subCfg.Discipline.String(), seed, window, plan, rec)
	return submitCell(c, n, subCfg, clCfg, nil)
}

// timelineEvery is the sampling interval of Figures 2 and 3.
const timelineEvery = 5 * time.Second

// submitCell is the submit scenario. With a timeline to fill it also
// samples available FDs and cumulative jobs every timelineEvery.
func submitCell(c cell, n int, subCfg condor.SubmitterConfig, clCfg condor.Config, tl *SubmitTimeline) (jobs, crashes int64) {
	var cl *condor.Cluster
	c.run(scenario{
		substrate: func(e core.Backend) chaos.Targets {
			cl = condor.NewCluster(e, clCfg)
			return chaos.Targets{Cluster: cl}
		},
		daemons: func(ctx context.Context) { cl.StartHousekeeping(ctx) },
		checks:  func(inv *chaos.Invariants) { condorChecks(inv, cl, subCfg, c.window) },
		gauges:  func(sc *obs.Scope) { obsCluster(sc, cl) },
		clients: func(e core.Backend, ctx context.Context) {
			if tl != nil {
				var tick func()
				tick = func() {
					tl.FDs.Add(e.Elapsed(), float64(cl.FDs.Free()))
					tl.Jobs.Add(e.Elapsed(), float64(cl.Schedd.Jobs))
					if e.Elapsed() < c.window {
						e.Schedule(timelineEvery, tick)
					}
				}
				e.Schedule(0, tick)
			}
			for i := 0; i < n; i++ {
				cfg := subCfg
				cfg.Trace = c.client(e, subCfg.Discipline.String(), "submitter", i)
				e.Spawn("submitter", func(p core.Proc) {
					var sub condor.Submitter
					sub.Loop(p, ctx, cl, cfg)
				})
			}
		},
		post: func(inv *chaos.Invariants) {
			if tl != nil {
				inv.SeriesMonotone(tl.Jobs)
			}
		},
	})
	return cl.Schedd.Jobs, cl.Schedd.Crashes
}

// invariantWindow bounds how long the carrier floor may stay breached:
// one backoff epoch, scaled down with short experiment windows.
func invariantWindow(window time.Duration) time.Duration {
	mb := window / 10
	if mb < 10*time.Second {
		mb = 10 * time.Second
	}
	if mb > 2*time.Minute {
		mb = 2 * time.Minute
	}
	return mb
}

// condorChecks registers the submit-scenario invariant suite: jobs and
// crashes are cumulative, the run must reach its horizon, and Ethernet
// clients must never hold the FD table deep below the carrier floor
// for longer than a backoff epoch.
func condorChecks(inv *chaos.Invariants, cl *condor.Cluster, subCfg condor.SubmitterConfig, window time.Duration) {
	inv.Monotone("jobs", func() float64 { return float64(cl.Schedd.Jobs) })
	inv.Monotone("crashes", func() float64 { return float64(cl.Schedd.Crashes) })
	inv.Horizon(window)
	if subCfg.Discipline == core.Ethernet {
		// The floor halves under capacity squeezes: the discipline can
		// only preserve what the kernel still provides.
		floor := func() int {
			f := subCfg.Threshold
			if c := cl.FDs.Capacity(); f > c {
				f = c
			}
			return f / 2
		}
		inv.CarrierFloor("file-nr", cl.FDs.Free, floor, invariantWindow(window))
	}
}

// scaledConfigs returns submitter and cluster configurations whose FD
// capacity and carrier threshold shrink with opt.Scale, so scaled-down
// runs keep the paper's contention regime.
func scaledConfigs(opt Options, d core.Discipline) (condor.SubmitterConfig, condor.Config) {
	subCfg := condor.DefaultSubmitterConfig(d)
	clCfg := condor.Config{}
	if opt.scale() != 1.0 {
		subCfg.Threshold = opt.scaleN(subCfg.Threshold)
		clCfg.FDCapacity = opt.scaleN(condor.DefaultConfig().FDCapacity)
	}
	return subCfg, clCfg
}

// fig1Sweep declares Figure 1's cells.
func fig1Sweep(opt Options) sweep {
	return sweep{fig: "fig1", xlabel: "submitters", arms: disciplineArms(), xs: opt.scaleXs(Fig1Sweep)}
}

// Fig1 reproduces "Figure 1: Scalability of Job Submission": jobs
// submitted in five minutes versus the number of submitters, for the
// Ethernet, Aloha, and Fixed disciplines.
func Fig1(opt Options) *metrics.SweepTable {
	s := fig1Sweep(opt)
	window := opt.scaleD(SubmitWindow)
	jobs := grid[int64](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = window, opt.Chaos
		subCfg, clCfg := scaledConfigs(opt, core.Disciplines[arm])
		jobs[arm][p], _ = submitCell(c, s.xs[p], subCfg, clCfg, nil)
	})
	var cols []col
	for arm, name := range s.arms {
		cols = append(cols, col{name, func(p int) float64 { return float64(jobs[arm][p]) }})
	}
	return s.table(cols...)
}

// SubmitTimeline holds the data of Figures 2 and 3: available FDs and
// cumulative jobs sampled over the run.
type SubmitTimeline struct {
	FDs  *metrics.Series // available file descriptors
	Jobs *metrics.Series // cumulative jobs submitted
	// Crashes counts schedd failures during the run (the upward FD
	// spikes of Figure 2).
	Crashes int64
}

// Table renders the timeline in the paper's two-line form.
func (tl *SubmitTimeline) Table() *metrics.Table {
	return &metrics.Table{XLabel: "t(s)", Series: []*metrics.Series{tl.FDs, tl.Jobs}}
}

// RunSubmitTimeline drives TimelineClients clients of discipline d for
// TimelineWindow, sampling every 5 seconds. fig names the figure row
// the run belongs to ("fig2"): it prefixes the cell label of the run's
// metric series, which keeps a figure and another figure's trace
// companion on the same seed apart in one registry.
func RunSubmitTimeline(opt Options, fig string, d core.Discipline) *SubmitTimeline {
	subCfg, clCfg := scaledConfigs(opt, d)
	tl := &SubmitTimeline{
		FDs:  metrics.NewSeries("avail-fds"),
		Jobs: metrics.NewSeries("jobs"),
	}
	c := opt.cell(fig+"/"+d.String(), opt.seed(), opt.scaleD(TimelineWindow), opt.Chaos, opt.Check)
	_, tl.Crashes = submitCell(c, opt.scaleN(TimelineClients), subCfg, clCfg, tl)
	return tl
}

// Fig2 reproduces "Figure 2: Timeline of Aloha Submitter".
func Fig2(opt Options) *SubmitTimeline { return RunSubmitTimeline(opt, "fig2", core.Aloha) }

// Fig3 reproduces "Figure 3: Timeline of Ethernet Submitter".
func Fig3(opt Options) *SubmitTimeline { return RunSubmitTimeline(opt, "fig3", core.Ethernet) }

// ---------------------------------------------------------------------
// Scenario 2: shared filesystem buffer (Figures 4, 5)
// ---------------------------------------------------------------------

// BufferWindow is the measurement window for the buffer sweep.
const BufferWindow = 10 * time.Minute

// Fig45Sweep is the producer counts swept in Figures 4 and 5.
var Fig45Sweep = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

// BufferSweep holds both buffer figures, which come from one experiment:
// files consumed (Figure 4) and write collisions (Figure 5) versus the
// number of producers.
type BufferSweep struct {
	Consumed   *metrics.SweepTable
	Collisions *metrics.SweepTable
}

// bufferSweep declares the cells Figures 4 and 5 share.
func bufferSweep(opt Options) sweep {
	return sweep{fig: "fig45", xlabel: "producers", arms: disciplineArms(), xs: opt.scaleXs(Fig45Sweep)}
}

// RunBufferSweep runs the producer/consumer scenario across the sweep
// and both disciplines, returning both figures' tables.
func RunBufferSweep(opt Options) *BufferSweep {
	s := bufferSweep(opt)
	window := opt.scaleD(BufferWindow)
	bufs := grid[struct{ consumed, collisions int64 }](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = window, opt.Chaos
		b := bufferCell(c, s.xs[p], core.Disciplines[arm])
		bufs[arm][p].consumed, bufs[arm][p].collisions = b.Consumed, b.Collisions
	})
	var consumed, collisions []col
	for arm, name := range s.arms {
		consumed = append(consumed, col{name, func(p int) float64 { return float64(bufs[arm][p].consumed) }})
		collisions = append(collisions, col{name, func(p int) float64 { return float64(bufs[arm][p].collisions) }})
	}
	return &BufferSweep{Consumed: s.table(consumed...), Collisions: s.table(collisions...)}
}

// BufferCell runs n producers of discipline d against a fresh buffer
// for the window, optionally under a fault plan and the invariant
// suite, and returns the buffer for inspection. It is the one entry
// point of the buffer scenario: Figures 4 and 5 and the chaos sweeps
// are built from it.
func BufferCell(opt Options, seed int64, n int, window time.Duration, d core.Discipline, plan *chaos.Plan, rec *chaos.Recorder) *fsbuffer.Buffer {
	return bufferCell(opt.cell("buffer/"+d.String(), seed, window, plan, rec), n, d)
}

// bufferCell is the buffer scenario. The Reservation discipline runs
// the allocator-fronted reserving producer of §5 instead of an
// optimistic writer; the allocator grants tenure with a window-derived
// quantum, so a wedged holder's promise is reclaimed instead of pinning
// buffer space.
func bufferCell(c cell, n int, d core.Discipline) *fsbuffer.Buffer {
	var b *fsbuffer.Buffer
	var alloc *fsbuffer.Allocator
	c.run(scenario{
		substrate: func(e core.Backend) chaos.Targets {
			b = fsbuffer.New(e, fsbuffer.Config{})
			if d == core.Reservation {
				alloc = fsbuffer.NewAllocator(e, b, 0)
				alloc.SetLeaseQuantum(leaseQuantum(c.window))
			}
			return chaos.Targets{Buffer: b, Allocator: alloc}
		},
		checks: func(inv *chaos.Invariants) {
			inv.Monotone("consumed", func() float64 { return float64(b.Consumed) })
			inv.Monotone("completed", func() float64 { return float64(b.Completed) })
			inv.Monotone("collisions", func() float64 { return float64(b.Collisions) })
			inv.Horizon(c.window)
		},
		gauges: func(sc *obs.Scope) {
			obsBuffer(sc, b)
			if alloc != nil {
				alloc.Tenure().Observe(sc, "reservation")
			}
		},
		clients: func(e core.Backend, ctx context.Context) {
			e.Spawn("consumer", func(p core.Proc) { b.Consumer(p, ctx) })
			for j := 0; j < n; j++ {
				cfg := fsbuffer.DefaultProducerConfig(d)
				cfg.Trace = c.client(e, d.String(), "producer", j)
				e.Spawn("producer", func(p core.Proc) {
					if d == core.Reservation {
						var rp fsbuffer.ReservingProducer
						rp.Loop(p, ctx, alloc, j, cfg)
						return
					}
					var pr fsbuffer.Producer
					pr.Loop(p, ctx, b, j, cfg)
				})
			}
		},
	})
	return b
}

// Fig4 reproduces "Figure 4: Buffer Throughput".
func Fig4(opt Options) *metrics.SweepTable { return RunBufferSweep(opt).Consumed }

// Fig5 reproduces "Figure 5: Buffer Collisions".
func Fig5(opt Options) *metrics.SweepTable { return RunBufferSweep(opt).Collisions }

// ---------------------------------------------------------------------
// Scenario 3: black holes (Figures 6, 7)
// ---------------------------------------------------------------------

// ReaderWindow is the window of Figures 6 and 7 (900 seconds).
const ReaderWindow = 900 * time.Second

// ReaderClients is the number of reader clients (three in the paper).
const ReaderClients = 3

// ReaderTimeline holds one reader figure: cumulative transfers plus the
// discipline's characteristic penalty events (collisions for Aloha,
// deferrals for Ethernet).
type ReaderTimeline struct {
	Transfers *metrics.Series
	Penalty   *metrics.Series // collisions (Fig 6) or deferrals (Fig 7)
	// Totals for shape checks.
	TotalTransfers, TotalCollisions, TotalDeferrals, TotalRejections int64
}

// Table renders the timeline in the paper's form.
func (tl *ReaderTimeline) Table() *metrics.Table {
	return &metrics.Table{XLabel: "t(s)", Series: []*metrics.Series{tl.Transfers, tl.Penalty}}
}

// RunReaderTimeline drives the replicated-service scenario with
// discipline d and the paper's reader parameters; fig is the figure row
// the run belongs to, as in RunSubmitTimeline.
func RunReaderTimeline(opt Options, fig string, d core.Discipline) *ReaderTimeline {
	window := opt.scaleD(ReaderWindow)
	rcfg := replica.DefaultReaderConfig(d)
	rcfg.OuterLimit = window
	return readerCell(opt.cell(fig+"/"+d.String(), opt.seed(), window, opt.Chaos, opt.Check), rcfg)
}

// ReaderCell runs the black-hole scenario with an arbitrary reader
// configuration, optionally under a fault plan armed against the
// servers and with the invariant suite recording into rec. It is the
// one entry point of the reader scenario: Figures 6 and 7, the chaos
// sweeps and the probe-timeout ablation are built from it.
func ReaderCell(opt Options, seed int64, window time.Duration, rcfg replica.ReaderConfig, plan *chaos.Plan, rec *chaos.Recorder) *ReaderTimeline {
	return readerCell(opt.cell("reader/"+rcfg.Discipline.String(), seed, window, plan, rec), rcfg)
}

// readerCell is the reader scenario.
func readerCell(c cell, rcfg replica.ReaderConfig) *ReaderTimeline {
	var servers []*replica.Server
	var books []*lease.Book
	readers := make([]*replica.Reader, ReaderClients)
	c.run(scenario{
		substrate: func(e core.Backend) chaos.Targets {
			cfg := replica.Config{}
			servers = []*replica.Server{
				replica.NewServer(e, "xxx", true, cfg), // the permanent black hole
				replica.NewServer(e, "yyy", false, cfg),
				replica.NewServer(e, "zzz", false, cfg),
			}
			// The Reservation reader books server lanes on per-server
			// admission books instead of queueing organically.
			if rcfg.Discipline == core.Reservation {
				books = replica.NewBooks(e, servers)
			}
			return chaos.Targets{Servers: servers}
		},
		checks: func(inv *chaos.Invariants) {
			inv.Monotone("transfers", func() float64 {
				var n int64
				for _, r := range readers {
					if r != nil {
						n += r.Done
					}
				}
				return float64(n)
			})
			inv.Horizon(c.window)
		},
		gauges: func(sc *obs.Scope) {
			obsServers(sc, servers)
			for i, b := range books {
				obsBook(sc, b, servers[i].Name+"-book")
			}
		},
		clients: func(e core.Backend, ctx context.Context) {
			for i := range readers {
				r := &replica.Reader{}
				readers[i] = r
				rc := rcfg
				rc.Trace = c.client(e, rcfg.Discipline.String(), "reader", i)
				e.Spawn("reader", func(p core.Proc) {
					if rc.Discipline == core.Reservation {
						r.LoopReserved(p, ctx, servers, books, rc)
						return
					}
					r.Loop(p, ctx, servers, rc)
				})
			}
		},
	})

	penaltyName := "collisions"
	penaltyKind := replica.EvCollision
	switch rcfg.Discipline {
	case core.Ethernet:
		penaltyName = "deferrals"
		penaltyKind = replica.EvDeferral
	case core.Reservation:
		penaltyName = "rejections"
		penaltyKind = replica.EvRejection
	}
	tl := &ReaderTimeline{
		Transfers: metrics.NewSeries("transfers"),
		Penalty:   metrics.NewSeries(penaltyName),
	}
	// Merge per-reader event logs into cumulative series.
	var evs []replica.Event
	for _, r := range readers {
		evs = append(evs, r.Events...)
		tl.TotalCollisions += r.Collisions
		tl.TotalDeferrals += r.Deferrals
		tl.TotalRejections += r.Rejections
		tl.TotalTransfers += r.Done
	}
	sortEvents(evs)
	nT, nP := 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case replica.EvTransfer:
			nT++
			tl.Transfers.Add(ev.At, float64(nT))
		case penaltyKind:
			nP++
			tl.Penalty.Add(ev.At, float64(nP))
		}
	}
	return tl
}

// sortEvents orders events by time (stable for equal times).
func sortEvents(evs []replica.Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}

// Fig6 reproduces "Figure 6: Aloha File Reader".
func Fig6(opt Options) *ReaderTimeline { return RunReaderTimeline(opt, "fig6", core.Aloha) }

// Fig7 reproduces "Figure 7: Ethernet File Reader".
func Fig7(opt Options) *ReaderTimeline { return RunReaderTimeline(opt, "fig7", core.Ethernet) }
