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
// Limited-allocation ablation (figure "la")
// ---------------------------------------------------------------------
//
// The paper's fourth Ethernet principle asks holders of a limited
// resource to release it periodically so competitors are not starved.
// This figure makes that principle load-bearing: the same Ethernet
// submitter population runs twice under a stuck-holder fault plan —
// once with leased FD tenure (the watchdog revokes wedged holders
// after a quantum) and once with the legacy unlimited allocation — and
// we measure what discipline alone cannot save: throughput, Jain's
// fairness index over per-client submissions, and how long the
// hungriest client went without the resource.

// LeaseSweep is the submitter counts swept in the ablation.
var LeaseSweep = []int{50, 100, 200, 400}

// leaseQuantum derives the tenure quantum from the experiment window:
// a tenth of the window, the same knob at every scale.
func leaseQuantum(window time.Duration) time.Duration { return window / 10 }

// leaseBudget is the no-starvation budget: a stuck holder costs at
// most one quantum before revocation, so K=4 quanta of continuous
// wanting means reclamation is not working.
func leaseBudget(window time.Duration) time.Duration { return 4 * leaseQuantum(window) }

// leaseArm names the two arms of the ablation, in traces and labels.
func leaseArm(quantum time.Duration) string {
	if quantum <= 0 {
		return "ethernet-unleased"
	}
	return "ethernet-leased"
}

// ablationBackoff is the backoff template of the la, res and net arms:
// capped at half the tenure quantum, so a deferred or rejected client
// re-senses within the reclamation cycle instead of sleeping through
// the grant it was waiting for. The cap is the same in every arm of an
// ablation, or it would confound the ablation.
func ablationBackoff(quantum time.Duration) *core.Backoff {
	return &core.Backoff{Base: time.Second, Cap: quantum / 2, Factor: 2, RandMin: 1, RandMax: 2}
}

// leaseSubmit is the la arm: n Ethernet submitters for the window
// against an FD table that grants tenure with the given quantum (0 =
// the unleased legacy ablation). Its starvation excursions are its
// measurement, tallied under "no-starvation".
func leaseSubmit(window time.Duration, n int, quantum time.Duration) submitArm {
	return submitArm{
		sub: condor.SubmitterConfig{
			Discipline: core.Ethernet,
			// One work unit spans the whole window: a wedged unleased
			// holder pins its FDs until the run ends, which is exactly
			// the failure mode under test.
			TryLimit:  window,
			Threshold: 4 * n,
			ThinkTime: 3 * time.Second,
			Backoff:   ablationBackoff(leaseQuantum(window)),
		},
		// Capacity comfortably fits the live steady-state load (~35%
		// duty cycle × 18 FDs each ≈ 6n, with the 3s think time above)
		// but not that load plus a population of wedged holders pinning
		// 15 FDs each: stuck holders, not honest congestion, are what
		// exhausts the table.
		cluster: condor.Config{FDCapacity: 12 * n, ServiceSlots: n, LeaseQuantum: quantum},
		process: leaseArm(quantum),
		checks: func(inv *chaos.Invariants, r *submitRun) {
			inv.Monotone("jobs", func() float64 { return float64(r.cl.Schedd.Jobs) })
			inv.Horizon(window)
			inv.NoStarvation("fds", r.cl.FDs.LongestWait, leaseBudget(window))
		},
		tally: true,
	}
}

// LeaseAblation holds the figure's two tables.
type LeaseAblation struct {
	// Throughput: jobs submitted, leased vs unleased.
	Throughput *metrics.SweepTable
	// Fairness: Jain's index (×100), watchdog revocations, starvation
	// excursions, and the hungriest client's wait in seconds.
	Fairness *metrics.SweepTable
}

// laSweep declares the ablation's cells: leased then unleased at each
// population, matching the serial emission order of traces and
// violations.
func laSweep(Options) sweep {
	return sweep{fig: "la", xlabel: "submitters", arms: []string{leaseArm(1), leaseArm(0)}, xs: slices.Clone(LeaseSweep), byX: true}
}

// FigLA runs the limited-allocation ablation: each population size in
// LeaseSweep runs leased and unleased under the stuck-holder plan
// (opt.Chaos overrides it). Invariant violations from the leased cells
// go to opt.Check — the leased universe must stay starvation-free;
// the unleased cells' violations are the measurement, not a failure.
// Populations and window follow Options.ablationWindow, not the paper
// figures' scaling.
func FigLA(opt Options) *LeaseAblation {
	s := laSweep(opt)
	window := opt.ablationWindow()
	const leased, unleased = 0, 1
	type reading struct {
		jobs, revokes int64
		jain          float64
		starved       int
		wait          time.Duration
	}
	res := grid[reading](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = window, opt.Chaos
		if c.plan == nil {
			c.plan, _ = chaos.Preset("stuck-holder", c.seed)
		}
		quantum := leaseQuantum(window)
		if arm == unleased {
			quantum, c.rec = 0, nil
		}
		r := submitCell(c, s.xs[p], leaseSubmit(window, s.xs[p], quantum))
		res[arm][p] = reading{r.cl.Schedd.Jobs, r.cl.FDs.Revocations(), r.jain(), r.violations["no-starvation"], r.cl.FDs.MaxStarvation()}
	})
	return &LeaseAblation{
		Throughput: s.table(
			col{"leased", func(p int) float64 { return float64(res[leased][p].jobs) }},
			col{"unleased", func(p int) float64 { return float64(res[unleased][p].jobs) }},
		),
		Fairness: s.table(
			col{"jain-leased", func(p int) float64 { return 100 * res[leased][p].jain }},
			col{"jain-unleased", func(p int) float64 { return 100 * res[unleased][p].jain }},
			col{"revokes", func(p int) float64 { return float64(res[leased][p].revokes) }},
			col{"starved", func(p int) float64 { return float64(res[unleased][p].starved) }},
			col{"wait-unleased", func(p int) float64 { return res[unleased][p].wait.Seconds() }},
		),
	}
}
