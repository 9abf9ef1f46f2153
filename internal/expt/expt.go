// Package expt regenerates every figure in the paper's evaluation (§5),
// and the ablations and extension experiments beside them. Each FigN
// function builds fresh simulated universes, runs the workload, and
// returns the same series the figure plots. The package is used by
// cmd/gridbench (and through it by the repository's benchmark), and by
// integration tests that assert the paper's qualitative shapes.
package expt

import (
	"context"
	"fmt"
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
	// runs them with the FD table on a gridd daemon (see gridd.go): on
	// the simulator, the daemon on the cell's engine, or live, against
	// the daemon at GriddURL. Live runs are not reproducible; compare
	// them to sim runs with tolerance bands (see diff_test.go), never
	// byte-for-byte. Gridd runs on the simulator equal sim runs.
	Backend string
	// Timescale compresses live-backend time: virtual seconds per real
	// second. Zero means DefaultTimescale (GriddTimescale on the gridd
	// backend with a GriddURL). Ignored on the simulator, whose virtual
	// clock costs no real time at all.
	Timescale float64
	// Obs, when non-nil, arms the flight recorder: every cell samples
	// engine, carrier, and lease observables into the registry every
	// 5 s of its backend clock (see obs.go). Figures 2 and 3 are read
	// from those samples, so their cells sample into a registry of
	// their own when Obs is nil. Sampling is read-only — figures are
	// identical with it on or off — and on the sim backend the dump is
	// a pure function of the seed at any Parallel value.
	Obs *obs.Registry
	// Progress, when non-nil, is called by the sweep runner after each
	// cell completes, with cells done, cells total, and cumulative
	// engine events so far (0 unless Obs is armed). Calls arrive in
	// completion order — not cell order — and, on the worker pool, from
	// worker goroutines; the callback must be safe for that.
	Progress func(done, total int, events int64)
	// GriddURL points the gridd cells at an already-running daemon
	// (see cmd/gridd), across a real socket, from a live engine. Empty
	// means each cell runs on the simulator with its own daemon on the
	// cell's engine, reached in process.
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
	switch {
	case o.Backend == BackendLive:
		return live.New(seed, o.timescale())
	case o.Backend == BackendGridd && o.GriddURL != "":
		return live.New(seed, o.griddTimescale())
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

// submitArm is one arm of the submit scenario: what a figure sets
// beyond the population. Every arm runs in the same universe, built by
// submitCell; the figures differ only in these fields.
type submitArm struct {
	// sub configures every submitter. Its discipline decides how they
	// run: Reservation books on the cell's admission book
	// (Submitter.ReserveLoop), the others submit directly
	// (Submitter.Loop).
	sub condor.SubmitterConfig
	// cluster configures the condor cluster.
	cluster condor.Config
	// process is the trace process the submitters record on; empty
	// means the discipline's name.
	process string
	// checks registers the arm's invariant suite, in violation order,
	// on the run whose cluster (and book) the substrate has just built;
	// nil means condorChecks.
	checks func(inv *chaos.Invariants, r *submitRun)
	// tally makes the suite's violations the arm's measurement: the
	// suite always runs, and submitRun.violations counts them by check
	// before they are forwarded to the cell's recorder, if any.
	tally bool
	// extra, when set, spawns more clients of the cluster after the
	// submitters.
	extra func(e core.Backend, ctx context.Context, cl *condor.Cluster)
}

// submitRun is what a submit cell leaves for its figure to read.
type submitRun struct {
	cl *condor.Cluster
	// book is the Reservation discipline's admission book; nil for the
	// other disciplines.
	book *lease.Book
	// subs is each submitter's accounting, in spawn order.
	subs []condor.Submitter
	// violations counts the suite's violations by check when the arm
	// tallies them.
	violations map[string]int
}

// perClient is each submitter's submissions, in spawn order.
func (r *submitRun) perClient() []float64 {
	per := make([]float64, len(r.subs))
	for i := range r.subs {
		per[i] = float64(r.subs[i].Submitted)
	}
	return per
}

// jain is Jain's fairness index over the submitters' submissions.
func (r *submitRun) jain() float64 { return metrics.JainIndex(r.perClient()) }

// resBookCapacity sizes a Reservation cell's admission book: 10 units
// per submitter against a worst-case booking of
// ClientFDs+ClientFDJitter (20) units, so the book admits about half
// the population concurrently — the same contention regime the
// Ethernet arms' carrier threshold produces.
func resBookCapacity(n int) int64 { return int64(10 * n) }

// submitCell is the submit scenario: n submitters of arm a against a
// fresh cluster. It is the one entry point of the scenario: Figures 1
// to 3, the la, res and net ablations, the ablations and extension
// experiments and the chaos sweeps are built from it. Each submitter
// is a process of its own name (submitter-<i>), as the FD ledger and
// the admission book key holders by name.
func submitCell(c cell, n int, a submitArm) *submitRun {
	r := &submitRun{subs: make([]condor.Submitter, n)}
	process := a.process
	if process == "" {
		process = a.sub.Discipline.String()
	}
	checks := a.checks
	if checks == nil {
		checks = func(inv *chaos.Invariants, r *submitRun) { condorChecks(inv, r.cl, a.sub, c.window) }
	}
	var tally func(v chaos.Violation)
	if a.tally {
		r.violations = map[string]int{}
		tally = func(v chaos.Violation) { r.violations[v.Check]++ }
	}
	c.run(scenario{
		substrate: func(e core.Backend, fds newCarrier) chaos.Targets {
			r.cl = condor.NewClusterOn(e, a.cluster, fds)
			if a.sub.Discipline == core.Reservation {
				// The book carves the client share out of the descriptor
				// budget; the remainder of the table is the schedd's
				// (connection FDs, housekeeping), so an admitted client can
				// never crash the daemon by mere arrival — that is the
				// admission-control bargain.
				r.book = lease.NewBook(e, "fds", resBookCapacity(n))
			}
			return chaos.Targets{Cluster: r.cl}
		},
		daemons: func(ctx context.Context) { r.cl.StartHousekeeping(ctx) },
		checks:  func(inv *chaos.Invariants) { checks(inv, r) },
		tally:   tally,
		gauges: func(sc *obs.Scope) {
			obsCluster(sc, r.cl)
			if r.book != nil {
				obsBook(sc, r.book, "book")
			}
		},
		clients: func(e core.Backend, ctx context.Context) {
			for i := range r.subs {
				sub, cfg := &r.subs[i], a.sub
				cfg.Trace = c.client(e, process, "submitter", i)
				e.Spawn(fmt.Sprintf("submitter-%d", i), func(p core.Proc) {
					if cfg.Discipline == core.Reservation {
						sub.ReserveLoop(p, ctx, r.cl, r.book, cfg)
						return
					}
					sub.Loop(p, ctx, r.cl, cfg)
				})
			}
			if a.extra != nil {
				a.extra(e, ctx, r.cl)
			}
		},
	})
	return r
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
		inv.CarrierFloor("file-nr", cl.FDs.Sense, int64(subCfg.Threshold), invariantWindow(window))
	}
}

// scaledArm returns the paper's submit arm for discipline d, its FD
// capacity and carrier threshold shrunk with opt.Scale, so scaled-down
// runs keep the paper's contention regime.
func scaledArm(opt Options, d core.Discipline) submitArm {
	a := submitArm{sub: condor.DefaultSubmitterConfig(d)}
	if opt.scale() != 1.0 {
		a.sub.Threshold = opt.scaleN(a.sub.Threshold)
		a.cluster.FDCapacity = opt.scaleN(condor.DefaultConfig().FDCapacity)
	}
	return a
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
		jobs[arm][p] = submitCell(c, s.xs[p], scaledArm(opt, core.Disciplines[arm])).cl.Schedd.Jobs
	})
	return s.table(s.armCols("", func(arm, p int) float64 { return float64(jobs[arm][p]) })...)
}

// SubmitTimeline holds the data of Figures 2 and 3: available FDs and
// cumulative jobs, as the cell's flight recorder sampled them.
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
// TimelineWindow and reads the figure back from the cell's flight
// recorder: Options.Obs, or a registry of its own when that is nil. fig
// names the figure row the run belongs to ("fig2"): it prefixes the
// cell label of the run's metric series, which keeps a figure and
// another figure's trace companion on the same seed apart in one
// registry.
func RunSubmitTimeline(opt Options, fig string, d core.Discipline) *SubmitTimeline {
	c := opt.cell(fig+"/"+d.String(), opt.seed(), opt.scaleD(TimelineWindow), opt.Chaos, opt.Check)
	if c.reg == nil {
		c.reg = obs.New()
	}
	r := submitCell(c, opt.scaleN(TimelineClients), scaledArm(opt, d))
	return &SubmitTimeline{
		FDs:     c.recorded(MCarrierFree, "avail-fds"),
		Jobs:    c.recorded(MJobs, "jobs"),
		Crashes: r.cl.Schedd.Crashes,
	}
}

// recorded reads the cell's series of family back as a figure column:
// every tick's point, less the one armObs's finish takes after Run.
func (c cell) recorded(family, name string) *metrics.Series {
	pts := c.reg.Points(family, c.label)
	return &metrics.Series{Name: name, Points: pts[:len(pts)-1]}
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
		b, _ := bufferCell(c, s.xs[p], core.Disciplines[arm], fsbuffer.Config{}, 0)
		bufs[arm][p].consumed, bufs[arm][p].collisions = b.Consumed, b.Collisions
	})
	return &BufferSweep{
		Consumed:   s.table(s.armCols("", func(arm, p int) float64 { return float64(bufs[arm][p].consumed) })...),
		Collisions: s.table(s.armCols("", func(arm, p int) float64 { return float64(bufs[arm][p].collisions) })...),
	}
}

// bufferCell is the buffer scenario: n producers of discipline d
// against a fresh buffer of bufCfg. It is the one entry point of the
// scenario: Figures 4 and 5, the reservation baseline and the chaos
// sweeps are built from it. The Reservation discipline runs the
// allocator-fronted reserving producer of §5 instead of an optimistic
// writer, through an allocator whose round trip is grant (returned,
// nil otherwise); it grants tenure with a window-derived quantum, so a
// wedged holder's promise is reclaimed instead of pinning buffer space.
func bufferCell(c cell, n int, d core.Discipline, bufCfg fsbuffer.Config, grant time.Duration) (*fsbuffer.Buffer, *fsbuffer.Allocator) {
	var b *fsbuffer.Buffer
	var alloc *fsbuffer.Allocator
	c.run(scenario{
		substrate: func(e core.Backend, _ newCarrier) chaos.Targets {
			b = fsbuffer.New(e, bufCfg)
			if d == core.Reservation {
				alloc = fsbuffer.NewAllocator(e, b, grant)
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
	return b, alloc
}

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

// readerCell is the reader scenario: the paper's three readers of
// rcfg against three servers, one a permanent black hole. It is the one
// entry point of the scenario: Figures 6 and 7, the probe-timeout
// ablation and the chaos sweeps are built from it.
func readerCell(c cell, rcfg replica.ReaderConfig) *ReaderTimeline {
	// The readers always trace, into a tracer of the cell's own, which is
	// merged into the one the cell was given (if any) after the run.
	into := c.tr
	c.tr = trace.New()
	var servers []*replica.Server
	var books []*lease.Book
	readers := make([]*replica.Reader, ReaderClients)
	c.run(scenario{
		substrate: func(e core.Backend, _ newCarrier) chaos.Targets {
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

	penaltyName, penaltyKind := "collisions", trace.KCollision
	switch rcfg.Discipline {
	case core.Ethernet:
		penaltyName, penaltyKind = "deferrals", trace.KDefer
	case core.Reservation:
		penaltyName, penaltyKind = "rejections", trace.KReject
	}
	tl := &ReaderTimeline{
		Transfers: metrics.NewSeries("transfers"),
		Penalty:   metrics.NewSeries(penaltyName),
	}
	for _, r := range readers {
		tl.TotalCollisions += r.Collisions
		tl.TotalDeferrals += r.Deferrals
		tl.TotalRejections += r.Rejections
		tl.TotalTransfers += r.Done
	}
	// The cumulative series are counts of the cell's own trace, one point
	// per event; only the readers emit these kinds, in time order. Unlike
	// Figures 2 and 3 they are not read from the flight recorder: several
	// events share an instant (fig6_table.golden has two rows at t=80 and
	// two at t=90), which no fixed-period sampler can print. A cell's
	// tracer must therefore keep every event: a bounded (ring) recorder
	// would drop rows of these figures.
	nT, nP := 0, 0
	for _, ev := range c.tr.Events() {
		switch ev.Kind {
		case trace.KSuccess:
			nT++
			tl.Transfers.Add(ev.At, float64(nT))
		case penaltyKind:
			nP++
			tl.Penalty.Add(ev.At, float64(nP))
		}
	}
	into.Merge(c.tr)
	return tl
}

// Fig6 reproduces "Figure 6: Aloha File Reader".
func Fig6(opt Options) *ReaderTimeline { return RunReaderTimeline(opt, "fig6", core.Aloha) }

// Fig7 reproduces "Figure 7: Ethernet File Reader".
func Fig7(opt Options) *ReaderTimeline { return RunReaderTimeline(opt, "fig7", core.Ethernet) }
