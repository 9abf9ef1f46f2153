// Package expt regenerates every figure in the paper's evaluation (§5).
// Each FigN function builds a fresh simulated universe, runs the paper's
// workload, and returns the same series the figure plots. The package is
// used by cmd/gridbench, by the repository's benchmarks, and by
// integration tests that assert the paper's qualitative shapes.
package expt

import (
	"fmt"
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

	// cellObs is the per-cell registry handed out by runCells on the
	// sim backend (merged into Obs in cell order); obsCell names the
	// cell uniquely within its figure for the scope's cell label.
	cellObs *obs.Registry
	obsCell string
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
// configurations for the window, returning total jobs submitted and
// schedd crashes. It is the building block of Figure 1 and of the
// threshold ablation benchmarks.
func SubmitCell(seed int64, n int, window time.Duration, subCfg condor.SubmitterConfig, clCfg condor.Config) (jobs, crashes int64) {
	return SubmitCellChaos(seed, n, window, subCfg, clCfg, nil, nil)
}

// SubmitCellChaos is SubmitCell with a fault plan armed against the
// cluster and the invariant suite recording into rec; either may be
// nil. It is the building block of the chaos sweep tests.
func SubmitCellChaos(seed int64, n int, window time.Duration, subCfg condor.SubmitterConfig, clCfg condor.Config, plan *chaos.Plan, rec *chaos.Recorder) (jobs, crashes int64) {
	return submitCellTraced(Options{}, seed, n, window, subCfg, clCfg, plan, rec, nil)
}

// submitCellTraced is the traced core of SubmitCellChaos: when tr is
// non-nil every submitter gets its own trace thread under the
// discipline's process.
func submitCellTraced(opt Options, seed int64, n int, window time.Duration, subCfg condor.SubmitterConfig, clCfg condor.Config, plan *chaos.Plan, rec *chaos.Recorder, tr *trace.Tracer) (jobs, crashes int64) {
	e := opt.newEngine(seed)
	cl := condor.NewCluster(e, clCfg)
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	cl.StartHousekeeping(ctx)
	if plan != nil {
		plan.Arm(e, chaos.Targets{Window: window, Cluster: cl, Trace: tr})
	}
	inv := condorInvariants(e, rec, cl, subCfg, window)
	if inv != nil {
		inv.Start(ctx)
	}
	if opt.obsCell == "" {
		opt.obsCell = "submit/" + subCfg.Discipline.String()
	}
	finish := armObs(opt, e, window, opt.obsCell, func(sc *obs.Scope) { obsCluster(sc, cl) })
	for i := 0; i < n; i++ {
		cfg := subCfg
		if tr != nil {
			cfg.Trace = tr.NewClient(subCfg.Discipline.String(), fmt.Sprintf("submitter-%d", i), e.Elapsed)
		}
		e.Spawn("submitter", func(p core.Proc) {
			var sub condor.Submitter
			sub.Loop(p, ctx, cl, cfg)
		})
	}
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	finish()
	if inv != nil {
		inv.Finish()
	}
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

// condorInvariants wires the submit-scenario invariant suite: jobs and
// crashes are cumulative, the run must reach its horizon, and Ethernet
// clients must never hold the FD table deep below the carrier floor
// for longer than a backoff epoch. Returns nil when rec is nil.
func condorInvariants(e core.Backend, rec *chaos.Recorder, cl *condor.Cluster, subCfg condor.SubmitterConfig, window time.Duration) *chaos.Invariants {
	if rec == nil {
		return nil
	}
	inv := chaos.NewInvariants(e, rec, 0)
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
	return inv
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

// runSubmitCell runs n submitters of discipline d with paper defaults.
func runSubmitCell(seed int64, d core.Discipline, n int, window time.Duration) int64 {
	jobs, _ := SubmitCell(seed, n, window, condor.DefaultSubmitterConfig(d), condor.Config{})
	return jobs
}

// Fig1 reproduces "Figure 1: Scalability of Job Submission": jobs
// submitted in five minutes versus the number of submitters, for the
// Ethernet, Aloha, and Fixed disciplines.
func Fig1(opt Options) *metrics.SweepTable {
	window := opt.scaleD(SubmitWindow)
	xs := make([]int, 0, len(Fig1Sweep))
	for _, n := range Fig1Sweep {
		xs = append(xs, opt.scaleN(n))
	}
	t := &metrics.SweepTable{XLabel: "submitters", Xs: xs}
	jobs := make([]int64, len(core.Disciplines)*len(xs))
	runCells(opt, len(jobs), func(c int, tr *trace.Tracer, rec *chaos.Recorder, reg *obs.Registry) {
		d := core.Disciplines[c/len(xs)]
		i := c % len(xs)
		copt := opt
		copt.cellObs = reg
		copt.obsCell = fmt.Sprintf("fig1/%s/n%d", d, xs[i])
		subCfg, clCfg := scaledConfigs(opt, d)
		j, _ := submitCellTraced(copt, opt.seed()+int64(i), xs[i], window, subCfg, clCfg, opt.Chaos, rec, tr)
		jobs[c] = j
	})
	for di, d := range core.Disciplines {
		col := metrics.SweepCol{Name: d.String()}
		for i := range xs {
			col.Vals = append(col.Vals, float64(jobs[di*len(xs)+i]))
		}
		t.Cols = append(t.Cols, col)
	}
	return t
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

// runSubmitTimeline drives TimelineClients clients of discipline d for
// TimelineWindow, sampling every 5 seconds.
func runSubmitTimeline(opt Options, d core.Discipline) *SubmitTimeline {
	e := opt.newEngine(opt.seed())
	subCfg, clCfg := scaledConfigs(opt, d)
	cl := condor.NewCluster(e, clCfg)
	window := opt.scaleD(TimelineWindow)
	n := opt.scaleN(TimelineClients)
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	cl.StartHousekeeping(ctx)
	if opt.Chaos != nil {
		opt.Chaos.Arm(e, chaos.Targets{Window: window, Cluster: cl, Trace: opt.Trace})
	}
	inv := condorInvariants(e, opt.Check, cl, subCfg, window)
	if inv != nil {
		inv.Start(ctx)
	}

	if opt.obsCell == "" {
		opt.obsCell = "timeline/" + d.String()
	}
	finish := armObs(opt, e, window, opt.obsCell, func(sc *obs.Scope) { obsCluster(sc, cl) })

	tl := &SubmitTimeline{
		FDs:  metrics.NewSeries("avail-fds"),
		Jobs: metrics.NewSeries("jobs"),
	}
	const sampleEvery = 5 * time.Second
	var tick func()
	tick = func() {
		tl.FDs.Add(e.Elapsed(), float64(cl.FDs.Free()))
		tl.Jobs.Add(e.Elapsed(), float64(cl.Schedd.Jobs))
		if e.Elapsed() < window {
			e.Schedule(sampleEvery, tick)
		}
	}
	e.Schedule(0, tick)

	for i := 0; i < n; i++ {
		cfg := subCfg
		if opt.Trace != nil {
			cfg.Trace = opt.Trace.NewClient(d.String(), fmt.Sprintf("submitter-%d", i), e.Elapsed)
		}
		e.Spawn("submitter", func(p core.Proc) {
			var sub condor.Submitter
			sub.Loop(p, ctx, cl, cfg)
		})
	}
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	finish()
	if inv != nil {
		inv.SeriesMonotone(tl.Jobs)
		inv.Finish()
	}
	tl.Crashes = cl.Schedd.Crashes
	return tl
}

// Fig2 reproduces "Figure 2: Timeline of Aloha Submitter".
func Fig2(opt Options) *SubmitTimeline { return runSubmitTimeline(opt, core.Aloha) }

// Fig3 reproduces "Figure 3: Timeline of Ethernet Submitter".
func Fig3(opt Options) *SubmitTimeline { return runSubmitTimeline(opt, core.Ethernet) }

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

// RunBufferSweep runs the producer/consumer scenario across the sweep
// and both disciplines, returning both figures' tables.
func RunBufferSweep(opt Options) *BufferSweep {
	window := opt.scaleD(BufferWindow)
	xs := make([]int, 0, len(Fig45Sweep))
	for _, n := range Fig45Sweep {
		xs = append(xs, opt.scaleN(n))
	}
	bs := &BufferSweep{
		Consumed:   &metrics.SweepTable{XLabel: "producers", Xs: xs},
		Collisions: &metrics.SweepTable{XLabel: "producers", Xs: xs},
	}
	type bufRes struct{ consumed, collisions int64 }
	res := make([]bufRes, len(core.Disciplines)*len(xs))
	runCells(opt, len(res), func(c int, tr *trace.Tracer, rec *chaos.Recorder, reg *obs.Registry) {
		d := core.Disciplines[c/len(xs)]
		i := c % len(xs)
		copt := opt
		copt.cellObs = reg
		copt.obsCell = fmt.Sprintf("buffer/%s/n%d", d, xs[i])
		b := bufferCellTraced(copt, opt.seed()+int64(i), xs[i], window, d, opt.Chaos, rec, tr)
		res[c] = bufRes{consumed: b.Consumed, collisions: b.Collisions}
	})
	for di, d := range core.Disciplines {
		cons := metrics.SweepCol{Name: d.String()}
		coll := metrics.SweepCol{Name: d.String()}
		for i := range xs {
			r := res[di*len(xs)+i]
			cons.Vals = append(cons.Vals, float64(r.consumed))
			coll.Vals = append(coll.Vals, float64(r.collisions))
		}
		bs.Consumed.Cols = append(bs.Consumed.Cols, cons)
		bs.Collisions.Cols = append(bs.Collisions.Cols, coll)
	}
	return bs
}

// BufferCell runs n producers of discipline d against a fresh buffer
// for the window, optionally under a fault plan and the invariant
// suite, and returns the buffer for inspection. It is the building
// block of Figures 4 and 5 and of the chaos sweep tests.
func BufferCell(seed int64, n int, window time.Duration, d core.Discipline, plan *chaos.Plan, rec *chaos.Recorder) *fsbuffer.Buffer {
	return bufferCellTraced(Options{}, seed, n, window, d, plan, rec, nil)
}

// bufferCellTraced is the traced core of BufferCell: when tr is non-nil
// every producer gets its own trace thread under the discipline's
// process. The Reservation discipline runs the allocator-fronted
// reserving producer of §5 instead of an optimistic writer; the
// allocator grants tenure with a window-derived quantum, so a wedged
// holder's promise is reclaimed instead of pinning buffer space.
func bufferCellTraced(opt Options, seed int64, n int, window time.Duration, d core.Discipline, plan *chaos.Plan, rec *chaos.Recorder, tr *trace.Tracer) *fsbuffer.Buffer {
	e := opt.newEngine(seed)
	b := fsbuffer.New(e, fsbuffer.Config{})
	var alloc *fsbuffer.Allocator
	if d == core.Reservation {
		alloc = fsbuffer.NewAllocator(e, b, 0)
		alloc.SetLeaseQuantum(leaseQuantum(window))
	}
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	if plan != nil {
		plan.Arm(e, chaos.Targets{Window: window, Buffer: b, Allocator: alloc, Trace: tr})
	}
	var inv *chaos.Invariants
	if rec != nil {
		inv = chaos.NewInvariants(e, rec, 0)
		inv.Monotone("consumed", func() float64 { return float64(b.Consumed) })
		inv.Monotone("completed", func() float64 { return float64(b.Completed) })
		inv.Monotone("collisions", func() float64 { return float64(b.Collisions) })
		inv.Horizon(window)
		inv.Start(ctx)
	}
	if opt.obsCell == "" {
		opt.obsCell = "buffer/" + d.String()
	}
	finish := armObs(opt, e, window, opt.obsCell, func(sc *obs.Scope) {
		obsBuffer(sc, b)
		if alloc != nil {
			obsLease(sc, alloc.Tenure(), "reservation")
		}
	})
	e.Spawn("consumer", func(p core.Proc) { b.Consumer(p, ctx) })
	for j := 0; j < n; j++ {
		j := j
		cfg := fsbuffer.DefaultProducerConfig(d)
		if tr != nil {
			cfg.Trace = tr.NewClient(d.String(), fmt.Sprintf("producer-%d", j), e.Elapsed)
		}
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
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	finish()
	if inv != nil {
		inv.Finish()
	}
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

// runReaderTimeline drives the replicated-service scenario with
// discipline d and the paper's reader parameters.
func runReaderTimeline(opt Options, d core.Discipline) *ReaderTimeline {
	window := opt.scaleD(ReaderWindow)
	rcfg := replica.DefaultReaderConfig(d)
	rcfg.OuterLimit = window
	return readerCellTraced(opt, opt.seed(), window, rcfg, opt.Chaos, opt.Check, opt.Trace)
}

// ReaderCell runs the black-hole scenario with an arbitrary reader
// configuration — the building block of Figures 6 and 7 and of the
// probe-timeout ablation.
func ReaderCell(seed int64, window time.Duration, rcfg replica.ReaderConfig) *ReaderTimeline {
	return ReaderCellChaos(seed, window, rcfg, nil, nil)
}

// ReaderCellChaos is ReaderCell with a fault plan armed against the
// servers and the invariant suite recording into rec; either may be
// nil.
func ReaderCellChaos(seed int64, window time.Duration, rcfg replica.ReaderConfig, plan *chaos.Plan, rec *chaos.Recorder) *ReaderTimeline {
	return readerCellTraced(Options{}, seed, window, rcfg, plan, rec, nil)
}

// readerCellTraced is the traced core of ReaderCellChaos: when tr is
// non-nil every reader gets its own trace thread under the discipline's
// process.
func readerCellTraced(opt Options, seed int64, window time.Duration, rcfg replica.ReaderConfig, plan *chaos.Plan, rec *chaos.Recorder, tr *trace.Tracer) *ReaderTimeline {
	e := opt.newEngine(seed)
	cfg := replica.Config{}
	servers := []*replica.Server{
		replica.NewServer(e, "xxx", true, cfg), // the permanent black hole
		replica.NewServer(e, "yyy", false, cfg),
		replica.NewServer(e, "zzz", false, cfg),
	}
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	// The Reservation reader books server lanes on per-server admission
	// books instead of queueing organically.
	var books []*lease.Book
	if rcfg.Discipline == core.Reservation {
		books = replica.NewBooks(e, servers)
	}
	if plan != nil {
		plan.Arm(e, chaos.Targets{Window: window, Servers: servers, Trace: tr})
	}
	readers := make([]*replica.Reader, ReaderClients)
	var inv *chaos.Invariants
	if rec != nil {
		inv = chaos.NewInvariants(e, rec, 0)
		inv.Monotone("transfers", func() float64 {
			var n int64
			for _, r := range readers {
				if r != nil {
					n += r.Done
				}
			}
			return float64(n)
		})
		inv.Horizon(window)
		inv.Start(ctx)
	}
	if opt.obsCell == "" {
		opt.obsCell = "reader/" + rcfg.Discipline.String()
	}
	finish := armObs(opt, e, window, opt.obsCell, func(sc *obs.Scope) {
		obsServers(sc, servers)
		for i, b := range books {
			obsBook(sc, b, servers[i].Name+"-book")
		}
	})
	for i := range readers {
		readers[i] = &replica.Reader{}
		r := readers[i]
		rc := rcfg
		if tr != nil {
			rc.Trace = tr.NewClient(rcfg.Discipline.String(), fmt.Sprintf("reader-%d", i), e.Elapsed)
		}
		e.Spawn("reader", func(p core.Proc) {
			if rc.Discipline == core.Reservation {
				r.LoopReserved(p, ctx, servers, books, rc)
				return
			}
			r.Loop(p, ctx, servers, rc)
		})
	}
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	finish()
	if inv != nil {
		inv.Finish()
	}

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
func Fig6(opt Options) *ReaderTimeline { return runReaderTimeline(opt, core.Aloha) }

// Fig7 reproduces "Figure 7: Ethernet File Reader".
func Fig7(opt Options) *ReaderTimeline { return runReaderTimeline(opt, core.Ethernet) }

// TraceCompanions re-runs a single-discipline figure's workload under
// the disciplines the figure itself does not plot, on the same seed,
// so one trace (and its summary) compares all three disciplines
// head-to-head. Figures that already sweep every discipline (1, 4, 5)
// need no companions. Companion runs skip the invariant suite: its
// expectations are calibrated to the figure's own discipline.
func TraceCompanions(opt Options, fig string) {
	if opt.Trace == nil {
		return
	}
	opt.Check = nil
	switch fig {
	case "2": // Aloha timeline: add Ethernet and Fixed
		_ = runSubmitTimeline(opt, core.Ethernet)
		_ = runSubmitTimeline(opt, core.Fixed)
	case "3": // Ethernet timeline: add Aloha and Fixed
		_ = runSubmitTimeline(opt, core.Aloha)
		_ = runSubmitTimeline(opt, core.Fixed)
	case "6": // Aloha reader: add Ethernet and Fixed
		_ = runReaderTimeline(opt, core.Ethernet)
		_ = runReaderTimeline(opt, core.Fixed)
	case "7": // Ethernet reader: add Aloha and Fixed
		_ = runReaderTimeline(opt, core.Aloha)
		_ = runReaderTimeline(opt, core.Fixed)
	}
	// Figure "la" runs both of its arms itself; no companions needed.
}
