package expt

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The paper's evaluation is one experiment told many times: n clients
// of one discipline contend for one carrier for a window. This file is
// the part that is the same every time. A cell says where a universe
// runs and where its side effects go, a scenario what it contains, and
// cell.run is the only code that brings the two together (DESIGN.md,
// "Anatomy of a cell"). A sweep declares which cells a figure runs and
// assembles their results into tables.

// cell is one simulated universe about to run.
type cell struct {
	opt    Options // backend, timescale, sampling interval
	seed   int64
	window time.Duration
	plan   *chaos.Plan     // faults to arm, or nil
	rec    *chaos.Recorder // where invariant violations go, or nil
	tr     *trace.Tracer   // where client timelines go, or nil
	reg    *obs.Registry   // where the flight recorder samples, or nil
	// label is the "cell" label of every series the cell samples. Cells
	// sharing a registry must not share a label (obs.Scope panics on a
	// series registered twice), so sweeps stamp it (sweep.label) and
	// single-cell figures prefix it with their figure row.
	label string
}

// cell returns a cell outside any sweep: its tracer and registry are
// the Options' own, its fault plan and recorder the caller's choice.
func (o Options) cell(label string, seed int64, window time.Duration, plan *chaos.Plan, rec *chaos.Recorder) cell {
	return cell{opt: o, seed: seed, window: window, plan: plan, rec: rec, tr: o.Trace, reg: o.Obs, label: label}
}

// scenario is what one kind of universe contains: the hooks cell.run
// calls, in the order listed. Only substrate and clients are required.
type scenario struct {
	// substrate builds the contended resource on the fresh backend and
	// returns what a fault plan may act on.
	substrate func(e core.Backend) chaos.Targets
	// daemons starts the substrate's own processes, bounded by the
	// window's deadline.
	daemons func(ctx context.Context)
	// checks registers the invariant suite; registration order is
	// violation order. It runs only when there is a recorder to check
	// into: the cell's, or the private one tally implies.
	checks func(inv *chaos.Invariants)
	// tally, when set, makes violations the measurement: the suite
	// always runs, into a private recorder, and each violation is handed
	// to tally before it is forwarded to the cell's recorder, if any.
	tally func(v chaos.Violation)
	// gauges registers the scenario's flight-recorder instruments.
	gauges func(sc *obs.Scope)
	// clients spawns the population.
	clients func(e core.Backend, ctx context.Context)
	// post adds checks that need the finished run, when the suite ran.
	post func(inv *chaos.Invariants)
}

// run executes the scenario in the cell. The order of the steps is part
// of the determinism contract — timers due at one instant fire in the
// order they were scheduled — so it is written exactly once.
func (c cell) run(s scenario) {
	e := c.opt.newEngine(c.seed)
	targets := s.substrate(e)
	ctx, cancel := e.WithTimeout(e.Context(), c.window)
	defer cancel()
	if s.daemons != nil {
		s.daemons(ctx)
	}
	if c.plan != nil {
		targets.Window, targets.Trace = c.window, c.tr
		c.plan.Arm(e, targets)
	}
	rec := c.rec
	if s.tally != nil {
		rec = &chaos.Recorder{}
	}
	var inv *chaos.Invariants
	if rec != nil {
		inv = chaos.NewInvariants(e, rec, 0)
		s.checks(inv)
		inv.Start(ctx)
	}
	finish := armObs(c, e, s.gauges)
	s.clients(e, ctx)
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	finish()
	if inv != nil {
		if s.post != nil {
			s.post(inv)
		}
		inv.Finish()
	}
	if s.tally != nil {
		for _, v := range rec.Violations {
			s.tally(v)
			if c.rec != nil {
				c.rec.Add(v)
			}
		}
	}
}

// client returns the trace handle of the cell's i-th client in the
// given role, on the named trace process; nil, and nothing formatted,
// when the cell is untraced.
func (c cell) client(e core.Backend, process, role string, i int) *trace.Client {
	if c.tr == nil {
		return nil
	}
	return c.tr.NewClient(process, fmt.Sprintf("%s-%d", role, i), e.Elapsed)
}

// sweep declares the cells of a sweep figure — every arm at every
// population — and assembles their results into the figure's tables.
type sweep struct {
	fig    string   // the figure row: prefix of every cell label
	xlabel string   // what the populations count
	arms   []string // what differs between the cells at one population
	xs     []int    // the populations, after scaling
	// byX orders the cells population-major (every arm of xs[0], then
	// of xs[1], ...) instead of arm-major. Cell order is the order
	// traces and violations are emitted in.
	byX bool
}

// label names the cell of arm at sweep position p: figure, arm and
// population, plus — when scaling has collapsed several sweep points
// onto one population — which of them this is, so that labels are
// distinct at every scale.
func (s sweep) label(arm, p int) string {
	l := fmt.Sprintf("%s/%s/n%d", s.fig, s.arms[arm], s.xs[p])
	nth := 1
	for _, x := range s.xs[:p] {
		if x == s.xs[p] {
			nth++
		}
	}
	if nth > 1 {
		l += fmt.Sprintf(".%d", nth)
	}
	return l
}

// run executes every cell of the sweep on the worker pool, handing each
// its arm, its sweep position, and a cell that is labelled, seeded by
// position and wired to its own sinks; the caller sets window and plan
// and stores the result by (arm, p).
func (s sweep) run(opt Options, run func(arm, p int, c cell)) {
	runCells(opt, len(s.arms)*len(s.xs), func(i int, c cell) {
		arm, p := i/len(s.xs), i%len(s.xs)
		if s.byX {
			arm, p = i%len(s.arms), i/len(s.arms)
		}
		c.label = s.label(arm, p)
		c.seed = opt.seed() + int64(p)
		run(arm, p, c)
	})
}

// grid returns a zeroed result slot for every cell of the sweep,
// indexed [arm][p].
func grid[T any](s sweep) [][]T {
	g := make([][]T, len(s.arms))
	for arm := range g {
		g[arm] = make([]T, len(s.xs))
	}
	return g
}

// col is one column of a sweep table: its name and its value at sweep
// position p.
type col struct {
	name string
	val  func(p int) float64
}

// table assembles a table over the sweep's populations.
func (s sweep) table(cols ...col) *metrics.SweepTable {
	t := &metrics.SweepTable{XLabel: s.xlabel, Xs: s.xs}
	for _, c := range cols {
		vals := make([]float64, len(s.xs))
		for p := range vals {
			vals[p] = c.val(p)
		}
		t.Cols = append(t.Cols, metrics.SweepCol{Name: c.name, Vals: vals})
	}
	return t
}

// scaleXs scales a population sweep.
func (o Options) scaleXs(sweep []int) []int {
	xs := make([]int, len(sweep))
	for i, n := range sweep {
		xs[i] = o.scaleN(n)
	}
	return xs
}

// disciplineArms names the paper's three disciplines, in figure order,
// as sweep arms.
func disciplineArms() []string {
	arms := make([]string, len(core.Disciplines))
	for i, d := range core.Disciplines {
		arms[i] = d.String()
	}
	return arms
}

// ablationWindow is the window of the la, res and net ablations: the
// submit window, floored at two minutes. Their populations are not
// scaled down either: starvation statistics on a handful of clients
// over a few seconds are noise (one wedged client is 20% of a 5-client
// population), so Options.Scale only shortens the window, and never
// below where a quantum or partition cycle is meaningful.
func (o Options) ablationWindow() time.Duration {
	window := o.scaleD(SubmitWindow)
	if window < 2*time.Minute {
		window = 2 * time.Minute
	}
	return window
}
