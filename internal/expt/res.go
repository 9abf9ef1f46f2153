package expt

import (
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/metrics"
)

// ---------------------------------------------------------------------
// Reservation/admission-control ablation (figure "res")
// ---------------------------------------------------------------------
//
// The fourth discipline the paper's taxonomy implies but never builds:
// instead of sensing the carrier and colliding optimistically, a
// reservation submitter books a worst-case descriptor window on an
// admission book before touching the schedd. The book refuses outright
// when it is full over the requested window — a typed rejection that
// consumed nothing — and enforces granted windows server-side with the
// claim lease's watchdog.
//
// The figure runs Reservation head-to-head against the leased Ethernet
// submitter (FigLA's healthy arm) twice per population: once fault-free
// and once under the "res-flap" plan (the schedd flaps and holders
// wedge mid-window). The headline is the trade: admission control wins
// under steady load — no crashes, no collisions, capacity never
// overcommitted — and collapses under server flap, because the book
// keeps charging for windows whose holders are dead until each window's
// boundary passes, while Ethernet's failed optimists retreat after one
// quantum.

// ResSweep is the submitter counts swept by FigRes.
var ResSweep = []int{50, 100, 200, 400}

// resWindow is the tenure a reservation submitter books per job: a
// third of the experiment window. It must cover the worst-case
// submission with room to spare (honest holders release early and the
// booking truncates, so the slack is free in steady state); the same
// slack is exactly what a wedged holder's dead window costs under
// chaos — over 3x the Ethernet arm's revocation quantum.
func resWindow(window time.Duration) time.Duration { return window / 3 }

// resSubmit is the res arm: n Reservation submitters for the window,
// booking their descriptors on the cell's admission book, against the
// same table and service provisioning as the leased Ethernet arm
// (leaseSubmit), so the only variable is the discipline. Its
// starvation excursions are its measurement: under the flap plan dead
// windows starve the book.
func resSubmit(window time.Duration, n int) submitArm {
	quantum := leaseQuantum(window)
	return submitArm{
		sub: condor.SubmitterConfig{
			Discipline: core.Reservation,
			// One work unit spans the whole window, as in the Ethernet
			// arm.
			TryLimit:  window,
			Window:    resWindow(window),
			ThinkTime: 3 * time.Second,
			// The same capped backoff template as the Ethernet arm: a
			// rejected client re-asks within the reclamation cycle.
			Backoff: ablationBackoff(quantum),
		},
		cluster: condor.Config{FDCapacity: 12 * n, ServiceSlots: n, LeaseQuantum: quantum},
		checks: func(inv *chaos.Invariants, r *submitRun) {
			inv.Monotone("jobs", func() float64 { return float64(r.cl.Schedd.Jobs) })
			inv.Monotone("rejects", func() float64 { return float64(r.book.Rejects) })
			inv.Horizon(window)
			inv.NoStarvation("fds", r.book.Tenure().LongestWait, leaseBudget(window))
		},
		tally: true,
	}
}

// ResAblation holds the figure's two tables.
type ResAblation struct {
	// Throughput: jobs submitted — Reservation vs leased Ethernet,
	// fault-free and under the res-flap plan.
	Throughput *metrics.SweepTable
	// Admission: the book's own accounting — steady-state rejections,
	// flap rejections, dead windows (claim revocations under flap), and
	// the Ethernet flap arm's crashes for contrast.
	Admission *metrics.SweepTable
}

// resSweep declares the ablation's cells: four per population, in
// fixed order — res/eth steady, then res/eth under flap — matching the
// serial emission order of traces and violations.
func resSweep(Options) sweep {
	return sweep{fig: "res", xlabel: "submitters", arms: []string{"res-steady", "eth-steady", "res-flap", "eth-flap"}, xs: slices.Clone(ResSweep), byX: true}
}

// FigRes runs the reservation ablation: each population in ResSweep
// runs four cells — Reservation and leased Ethernet, each fault-free
// and under the "res-flap" plan (opt.Chaos overrides it). Violations
// from the fault-free cells go to opt.Check — a steady-state universe
// must stay clean; the flap cells' violations are the measurement.
// Populations and window follow Options.ablationWindow, so the
// booking-window cycle stays meaningful at every scale.
func FigRes(opt Options) *ResAblation {
	s := resSweep(opt)
	window := opt.ablationWindow()
	const resS, ethS, resF, ethF = 0, 1, 2, 3
	// The book's readings are the Reservation arms'; the Ethernet arms
	// have no book.
	type reading struct{ jobs, crashes, rejects, dead, lapses int64 }
	res := grid[reading](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window = window
		if arm == resF || arm == ethF {
			c.rec = nil
			if c.plan = opt.Chaos; c.plan == nil {
				c.plan, _ = chaos.Preset("res-flap", c.seed)
			}
		}
		a := leaseSubmit(window, s.xs[p], leaseQuantum(window))
		if arm == resS || arm == resF {
			a = resSubmit(window, s.xs[p])
		}
		r := submitCell(c, s.xs[p], a)
		res[arm][p] = reading{jobs: r.cl.Schedd.Jobs, crashes: r.cl.Schedd.Crashes}
		if b := r.book; b != nil {
			res[arm][p].rejects, res[arm][p].dead, res[arm][p].lapses = b.Rejects, b.Tenure().Revokes, b.Lapses
		}
	})
	return &ResAblation{
		Throughput: s.table(
			col{"res", func(p int) float64 { return float64(res[resS][p].jobs) }},
			col{"ethernet", func(p int) float64 { return float64(res[ethS][p].jobs) }},
			col{"res-flap", func(p int) float64 { return float64(res[resF][p].jobs) }},
			col{"eth-flap", func(p int) float64 { return float64(res[ethF][p].jobs) }},
		),
		Admission: s.table(
			col{"rejects", func(p int) float64 { return float64(res[resS][p].rejects) }},
			col{"rejects-flap", func(p int) float64 { return float64(res[resF][p].rejects) }},
			col{"dead-windows", func(p int) float64 { return float64(res[resF][p].dead) }},
			col{"lapses-flap", func(p int) float64 { return float64(res[resF][p].lapses) }},
			col{"eth-crashes-flap", func(p int) float64 { return float64(res[ethF][p].crashes) }},
		),
	}
}
