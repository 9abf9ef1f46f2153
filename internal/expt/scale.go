package expt

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ---------------------------------------------------------------------
// Million-client engine sweep (figure "scale")
// ---------------------------------------------------------------------
//
// The paper's client sweeps stop at a few hundred submitters because
// each client is a goroutine-backed process; a million of those is
// gigabytes of stacks before the first virtual second elapses. The
// scale figure drives the same Ethernet discipline — carrier-sense,
// defer below a threshold, exponential backoff, bounded hold — through
// lightweight clients instead: each client is a few dozen bytes of
// state in one dense slice, advanced entirely by engine timers via the
// zero-allocation ScheduleArg path. No goroutines, no parking, no
// per-event closures, so the engine's timer structures are the whole
// cost, and a 1M-client cell is feasible in seconds.
//
// The figure is sim-only by construction (a million wall-clock timers
// is not a measurement, it is a denial of service) and ignores fault
// plans: its purpose is to measure the engine, not the disciplines.
// The deterministic columns (jobs, deferrals, attempts, events) are a
// pure function of the seed at any -parallel setting; the wall-clock
// and events/sec of each cell are reported separately as "# timing:"
// comments because they are, deliberately, not.

// ScaleSweep is the client populations swept by FigScale. Options.Scale
// shrinks them like every other sweep: -scale 0.01 turns the 1M cell
// into a 10k smoke cell.
var ScaleSweep = []int{10_000, 100_000, 1_000_000}

// ScaleWindow is the measurement window of the scale sweep, in virtual
// time. Sixty seconds at a ~10s mean think time gives every client a
// handful of attempts — enough contention to exercise the backoff
// machinery without the event count drowning the figure's purpose.
const ScaleWindow = 60 * time.Second

// Per-client discipline parameters. The regime mirrors the paper's
// submit scenario scaled up: demand outstrips carrier capacity by
// roughly 2x, so carrier-sense deferral and backoff do real work.
const (
	scaleThink      = 10 * time.Second       // mean idle time between jobs
	scaleService    = 200 * time.Millisecond // carrier hold per job
	scaleBackoff0   = 250 * time.Millisecond // initial backoff
	scaleBackoffMax = 30 * time.Second       // backoff ceiling
	// scaleWatchdogAt is the deadline of each cell's runaway watchdog: a
	// far-future timer that panics if a cell somehow fails to quiesce.
	// It is deliberately beyond the timer wheel's in-wheel horizon so
	// every scale cell also exercises the overflow list (see
	// sim.Engine.TimerOverflowLen), and it is canceled at drain time.
	scaleWatchdogAt = 90 * 24 * time.Hour
)

// scaleCarrierCapacity sizes the shared carrier for n clients: one unit
// per hundred clients, the same ~2x-overcommit contention regime at
// every sweep point.
func scaleCarrierCapacity(n int) int {
	c := n / 100
	if c < 1 {
		c = 1
	}
	return c
}

// scaleCell is the shared universe of one sweep point: the carrier and
// the cumulative counters every client updates under the engine token.
type scaleCell struct {
	e         *sim.Engine
	window    time.Duration
	capacity  int // carrier units
	threshold int // carrier-sense floor: defer when free < threshold
	inUse     int

	jobs      int64
	attempts  int64
	deferrals int64
}

// scaleClient is one lightweight client: per-client state only, dense
// in one slice per cell. All behavior lives in the shared callbacks
// below, driven by ScheduleArg, so a client costs no goroutine, no
// closure per event, and no allocation after setup.
type scaleClient struct {
	cell    *scaleCell
	backoff time.Duration
}

// scaleJitter spreads d uniformly over [d/2, 3d/2) using the engine's
// deterministic source, desynchronizing the population exactly as the
// paper's disciplines do.
func scaleJitter(e *sim.Engine, d time.Duration) time.Duration {
	return d/2 + time.Duration(e.Rand().Float64()*float64(d))
}

// scaleAttempt is the shared attempt callback: carrier-sense, defer
// below threshold with exponential backoff, otherwise hold a unit for
// the service time.
func scaleAttempt(arg any) {
	c := arg.(*scaleClient)
	s := c.cell
	if s.e.Elapsed() >= s.window {
		return // window closed: let the population drain
	}
	s.attempts++
	if s.capacity-s.inUse < s.threshold {
		s.deferrals++
		c.backoff *= 2
		if c.backoff > scaleBackoffMax {
			c.backoff = scaleBackoffMax
		}
		s.e.ScheduleArg(scaleJitter(s.e, c.backoff), scaleAttempt, c)
		return
	}
	s.inUse++
	s.e.ScheduleArg(scaleService, scaleRelease, c)
}

// scaleRelease is the shared completion callback: release the unit,
// count the job, reset backoff, and think before the next attempt.
func scaleRelease(arg any) {
	c := arg.(*scaleClient)
	s := c.cell
	s.inUse--
	s.jobs++
	c.backoff = scaleBackoff0
	if s.e.Elapsed() >= s.window {
		return
	}
	s.e.ScheduleArg(scaleJitter(s.e, scaleThink), scaleAttempt, c)
}

// ScaleCellResult is one sweep point's accounting. Jobs, Attempts,
// Deferrals, and Events are deterministic per seed; Wall is the host
// wall-clock cost of the cell and EventsPerSec the resulting engine
// throughput — the two numbers BENCH_expt.json records.
type ScaleCellResult struct {
	Clients   int
	Jobs      int64
	Attempts  int64
	Deferrals int64
	Events    int64
	Wall      time.Duration
}

// EventsPerSec reports the cell's engine throughput in scheduling steps
// per wall-clock second.
func (r *ScaleCellResult) EventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Events) / r.Wall.Seconds()
}

// ScaleCell runs one sweep point: n lightweight Ethernet clients
// contending for an n/100-unit carrier over the window.
func ScaleCell(opt Options, seed int64, n int) *ScaleCellResult {
	return runScale(opt.cell(fmt.Sprintf("scale/ethernet/n%d", n), seed, opt.scaleD(ScaleWindow), nil, nil), n)
}

// runScale is the timer-only scenario. It does not go through cell.run:
// it has no processes, substrate or fault plan, and it is the engine
// benchmark's hot path, so it takes from the cell only what it shares
// with the others — seed, window, recorder, registry and label.
func runScale(c cell, n int) *ScaleCellResult {
	start := time.Now()
	e := sim.New(c.seed)
	cap := scaleCarrierCapacity(n)
	s := &scaleCell{
		e:         e,
		window:    c.window,
		capacity:  cap,
		threshold: max(1, cap/4),
	}
	clients := make([]scaleClient, n)
	for i := range clients {
		clients[i] = scaleClient{cell: s, backoff: scaleBackoff0}
		// Desynchronized first attempts.
		e.ScheduleArg(time.Duration(e.Rand().Float64()*float64(scaleThink)), scaleAttempt, &clients[i])
	}
	// Runaway watchdog, beyond the wheel horizon (exercises overflow).
	wd := e.Schedule(scaleWatchdogAt, func() {
		panic("expt: scale cell failed to quiesce")
	})
	// The last legitimate event is bounded by window + max backoff +
	// service; collect the watchdog after that so Run can quiesce.
	e.Schedule(s.window+2*scaleBackoffMax, wd.Cancel)

	var inv *chaos.Invariants
	if c.rec != nil {
		inv = chaos.NewInvariants(e.RT(), c.rec)
		inv.Monotone("jobs", func() float64 { return float64(s.jobs) })
		inv.Monotone("attempts", func() float64 { return float64(s.attempts) })
		inv.Horizon(s.window)
		ctx, cancel := e.WithTimeout(e.Context(), s.window)
		defer cancel()
		inv.Start(ctx)
	}
	finish := armObs(c, e.RT(), nil)
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	finish()
	if inv != nil {
		inv.Finish()
	}
	return &ScaleCellResult{
		Clients:   n,
		Jobs:      s.jobs,
		Attempts:  s.attempts,
		Deferrals: s.deferrals,
		Events:    e.Events(),
		Wall:      time.Since(start),
	}
}

// ScaleResult holds the figure's deterministic table plus the per-cell
// timing (wall-clock, events/sec) that is intentionally excluded from
// it.
type ScaleResult struct {
	Table *metrics.SweepTable
	Cells []*ScaleCellResult
}

// scaleSweep declares the figure's cells: one per population.
func scaleSweep(opt Options) sweep {
	return sweep{fig: "scale", xlabel: "clients", arms: []string{"ethernet"}, xs: opt.scaleXs(ScaleSweep)}
}

// FigScale runs the million-client engine sweep: ScaleSweep populations
// of lightweight Ethernet clients, one independent cell per population.
// Cells run on the worker pool like every other sweep and are
// reassembled in cell order, so the table is byte-identical at any
// Options.Parallel.
func FigScale(opt Options) *ScaleResult {
	s := scaleSweep(opt)
	window := opt.scaleD(ScaleWindow)
	cells := make([]*ScaleCellResult, len(s.xs))
	s.run(opt, func(_, p int, c cell) {
		c.window = window
		cells[p] = runScale(c, s.xs[p])
	})
	return &ScaleResult{Cells: cells, Table: s.table(
		col{"jobs", func(p int) float64 { return float64(cells[p].Jobs) }},
		col{"attempts", func(p int) float64 { return float64(cells[p].Attempts) }},
		col{"deferrals", func(p int) float64 { return float64(cells[p].Deferrals) }},
		col{"events", func(p int) float64 { return float64(cells[p].Events) }},
	)}
}
