package expt

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/obs"
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

// resBookCapacity sizes the admission book: 10 units per submitter
// against a worst-case booking of ClientFDs+ClientFDJitter (20) units,
// so the book admits about half the population concurrently — the same
// contention regime the Ethernet arm's carrier threshold produces.
func resBookCapacity(n int) int64 { return int64(10 * n) }

// ResCellResult is one reservation cell's accounting.
type ResCellResult struct {
	// Jobs is total jobs submitted; PerClient the per-submitter split.
	Jobs      int64
	PerClient []float64
	// Jain is Jain's fairness index over PerClient.
	Jain float64
	// Rejects counts bookings the full book refused outright.
	Rejects int64
	// Admits counts booked windows that were claimed.
	Admits int64
	// Revokes counts claim tenures the watchdog reclaimed at a window
	// boundary — each one is a dead window that was charged in full.
	Revokes int64
	// Lapses counts windows that ended unclaimed.
	Lapses int64
	// Crashes counts schedd crashes during the run.
	Crashes int64
	// Starved counts no-starvation violations; MaxWait is the longest
	// any client went wanting a booking.
	Starved int
	MaxWait time.Duration
}

// ResCell runs n reservation submitters against a cluster whose client
// descriptor share is governed by an admission book, for the window,
// optionally under a fault plan. Violations are counted into Starved;
// when rec is non-nil they are also forwarded, so an acceptance suite
// can demand a clean run.
func ResCell(opt Options, seed int64, n int, window time.Duration, plan *chaos.Plan, rec *chaos.Recorder) *ResCellResult {
	return resCell(opt.cell(fmt.Sprintf("res/reservation/n%d", n), seed, window, plan, rec), n)
}

// resCell is the reservation scenario.
func resCell(c cell, n int) *ResCellResult {
	quantum := leaseQuantum(c.window)
	var cl *condor.Cluster
	var book *lease.Book
	subs := make([]*condor.Submitter, n)
	res := &ResCellResult{PerClient: make([]float64, n)}
	c.run(scenario{
		substrate: func(e core.Backend, fds newCarrier) chaos.Targets {
			cl = condor.NewClusterOn(e, condor.Config{
				// Same table and service provisioning as the Ethernet arm
				// (leaseCell), so the only variable is the discipline.
				FDCapacity:   12 * n,
				ServiceSlots: n,
				LeaseQuantum: quantum,
			}, fds)
			// The book carves the client share out of the descriptor budget;
			// the remainder of the table is the schedd's (connection FDs,
			// housekeeping), so an admitted client can never crash the daemon
			// by mere arrival — that is the admission-control bargain.
			book = lease.NewBook(e, "fds", resBookCapacity(n))
			return chaos.Targets{Cluster: cl}
		},
		daemons: func(ctx context.Context) { cl.StartHousekeeping(ctx) },
		checks: func(inv *chaos.Invariants) {
			inv.Monotone("jobs", func() float64 { return float64(cl.Schedd.Jobs) })
			inv.Monotone("rejects", func() float64 { return float64(book.Rejects) })
			inv.Horizon(c.window)
			inv.NoStarvation("fds", book.Tenure().LongestWait, leaseBudget(c.window))
		},
		// Starvation is detected locally: under the flap plan the
		// violations are the measurement (dead windows starve the book),
		// not an experiment failure.
		tally: func(v chaos.Violation) {
			if v.Check == "no-starvation" {
				res.Starved++
			}
		},
		gauges: func(sc *obs.Scope) {
			obsCluster(sc, cl)
			obsBook(sc, book, "book")
		},
		clients: func(e core.Backend, ctx context.Context) {
			for i := range subs {
				sub := &condor.Submitter{}
				subs[i] = sub
				cfg := condor.ResSubmitterConfig{
					// One work unit spans the whole window, as in the Ethernet
					// arm.
					TryLimit:  c.window,
					Window:    resWindow(c.window),
					ThinkTime: 3 * time.Second,
					// The same capped backoff template as the Ethernet arm: a
					// rejected client re-asks within the reclamation cycle.
					Backoff: &core.Backoff{Base: time.Second, Cap: quantum / 2, Factor: 2, RandMin: 1, RandMax: 2},
					Trace:   c.client(e, core.Reservation.String(), "submitter", i),
				}
				// Unique process names: the book ledger keys holders by name.
				e.Spawn(fmt.Sprintf("submitter-%d", i), func(p core.Proc) {
					sub.ReserveLoop(p, ctx, cl, book, cfg)
				})
			}
		},
	})
	res.Jobs = cl.Schedd.Jobs
	res.Rejects = book.Rejects
	res.Admits = book.Admits
	res.Revokes = book.Tenure().Revokes
	res.Lapses = book.Lapses
	res.Crashes = cl.Schedd.Crashes
	res.MaxWait = book.Tenure().MaxStarvation()
	for i, sub := range subs {
		res.PerClient[i] = float64(sub.Submitted)
	}
	res.Jain = metrics.JainIndex(res.PerClient)
	return res
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
	res := grid[*ResCellResult](s)
	eth := grid[*LeaseCellResult](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window = window
		if arm == resF || arm == ethF {
			c.rec = nil
			if c.plan = opt.Chaos; c.plan == nil {
				c.plan, _ = chaos.Preset("res-flap", c.seed)
			}
		}
		if arm == resS || arm == resF {
			res[arm][p] = resCell(c, s.xs[p])
		} else {
			eth[arm][p] = leaseCell(c, s.xs[p], leaseQuantum(window))
		}
	})
	return &ResAblation{
		Throughput: s.table(
			col{"res", func(p int) float64 { return float64(res[resS][p].Jobs) }},
			col{"ethernet", func(p int) float64 { return float64(eth[ethS][p].Jobs) }},
			col{"res-flap", func(p int) float64 { return float64(res[resF][p].Jobs) }},
			col{"eth-flap", func(p int) float64 { return float64(eth[ethF][p].Jobs) }},
		),
		Admission: s.table(
			col{"rejects", func(p int) float64 { return float64(res[resS][p].Rejects) }},
			col{"rejects-flap", func(p int) float64 { return float64(res[resF][p].Rejects) }},
			col{"dead-windows", func(p int) float64 { return float64(res[resF][p].Revokes) }},
			col{"lapses-flap", func(p int) float64 { return float64(res[resF][p].Lapses) }},
			col{"eth-crashes-flap", func(p int) float64 { return float64(eth[ethF][p].Crashes) }},
		),
	}
}
