package expt

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
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

// LeaseCellResult is one ablation cell's accounting.
type LeaseCellResult struct {
	// Jobs is total jobs submitted; PerClient the per-submitter split.
	Jobs      int64
	PerClient []float64
	// Jain is Jain's fairness index over PerClient.
	Jain float64
	// Revokes counts FD tenures the lease watchdog reclaimed: the
	// carrier's own count, the daemon's on the gridd backend.
	Revokes int64
	// Starved counts no-starvation invariant violations: excursions
	// where some live client wanted FDs for more than the budget.
	Starved int
	// MaxWait is the longest any client went wanting FDs.
	MaxWait time.Duration
	// Crashes counts schedd crashes during the run.
	Crashes int64
}

// leaseQuantum derives the tenure quantum from the experiment window:
// a tenth of the window, the same knob at every scale.
func leaseQuantum(window time.Duration) time.Duration { return window / 10 }

// leaseBudget is the no-starvation budget: a stuck holder costs at
// most one quantum before revocation, so K=4 quanta of continuous
// wanting means reclamation is not working.
func leaseBudget(window time.Duration) time.Duration { return 4 * leaseQuantum(window) }

// LeaseCell runs n Ethernet submitters against a cluster whose FD
// table grants tenure with the given quantum (0 = the unleased legacy
// ablation) for the window, optionally under a fault plan. Violations
// are counted into the result's Starved; when rec is non-nil they are
// also forwarded to it, so an acceptance suite can demand a clean run.
func LeaseCell(opt Options, seed int64, n int, window, quantum time.Duration, plan *chaos.Plan, rec *chaos.Recorder) *LeaseCellResult {
	return leaseCell(opt.cell(fmt.Sprintf("la/%s/n%d", leaseArm(quantum), n), seed, window, plan, rec), n, quantum)
}

// leaseArm names the two arms of the ablation, in traces and labels.
func leaseArm(quantum time.Duration) string {
	if quantum <= 0 {
		return "ethernet-unleased"
	}
	return "ethernet-leased"
}

// leaseCell is the limited-allocation scenario.
func leaseCell(c cell, n int, quantum time.Duration) *LeaseCellResult {
	var cl *condor.Cluster
	subs := make([]*condor.Submitter, n)
	res := &LeaseCellResult{PerClient: make([]float64, n)}
	c.run(scenario{
		substrate: func(e core.Backend, fds newCarrier) chaos.Targets {
			cl = condor.NewClusterOn(e, condor.Config{
				// Capacity comfortably fits the live steady-state load (~35%
				// duty cycle × 18 FDs each ≈ 6n, with the 3s think time below)
				// but not that load plus a population of wedged holders pinning
				// 15 FDs each: stuck holders, not honest congestion, are what
				// exhausts the table.
				FDCapacity:   12 * n,
				ServiceSlots: n,
				LeaseQuantum: quantum,
			}, fds)
			return chaos.Targets{Cluster: cl}
		},
		daemons: func(ctx context.Context) { cl.StartHousekeeping(ctx) },
		checks: func(inv *chaos.Invariants) {
			inv.Monotone("jobs", func() float64 { return float64(cl.Schedd.Jobs) })
			inv.Horizon(c.window)
			inv.NoStarvation("fds", cl.FDs.LongestWait, leaseBudget(c.window))
		},
		// Starvation is detected locally even for the ablation cell, whose
		// violations are the expected result, not an experiment failure.
		tally: func(v chaos.Violation) {
			if v.Check == "no-starvation" {
				res.Starved++
			}
		},
		gauges: func(sc *obs.Scope) { obsCluster(sc, cl) },
		clients: func(e core.Backend, ctx context.Context) {
			for i := range subs {
				sub := &condor.Submitter{}
				subs[i] = sub
				cfg := condor.SubmitterConfig{
					Discipline: core.Ethernet,
					// One work unit spans the whole window: a wedged unleased
					// holder pins its FDs until the run ends, which is exactly
					// the failure mode under test.
					TryLimit:  c.window,
					Threshold: 4 * n,
					ThinkTime: 3 * time.Second,
					// Cap the backoff at half a quantum in both cells so a
					// deferred client re-senses within the reclamation cycle
					// instead of sleeping through the grant it was waiting for;
					// the cap must not differ between cells or it would
					// confound the ablation.
					Backoff: &core.Backoff{Base: time.Second, Cap: leaseQuantum(c.window) / 2, Factor: 2, RandMin: 1, RandMax: 2},
					Trace:   c.client(e, leaseArm(quantum), "submitter", i),
				}
				// Unique process names: the lease ledger keys holders by name.
				e.Spawn(fmt.Sprintf("submitter-%d", i), func(p core.Proc) {
					sub.Loop(p, ctx, cl, cfg)
				})
			}
		},
	})
	res.Revokes = cl.FDs.Revocations()
	res.MaxWait = cl.FDs.MaxStarvation()
	res.Jobs = cl.Schedd.Jobs
	res.Crashes = cl.Schedd.Crashes
	for i, sub := range subs {
		res.PerClient[i] = float64(sub.Submitted)
	}
	res.Jain = metrics.JainIndex(res.PerClient)
	return res
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
	res := grid[*LeaseCellResult](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = window, opt.Chaos
		if c.plan == nil {
			c.plan, _ = chaos.Preset("stuck-holder", c.seed)
		}
		quantum := leaseQuantum(window)
		if arm == unleased {
			quantum, c.rec = 0, nil
		}
		res[arm][p] = leaseCell(c, s.xs[p], quantum)
	})
	return &LeaseAblation{
		Throughput: s.table(
			col{"leased", func(p int) float64 { return float64(res[leased][p].Jobs) }},
			col{"unleased", func(p int) float64 { return float64(res[unleased][p].Jobs) }},
		),
		Fairness: s.table(
			col{"jain-leased", func(p int) float64 { return 100 * res[leased][p].Jain }},
			col{"jain-unleased", func(p int) float64 { return 100 * res[unleased][p].Jain }},
			col{"revokes", func(p int) float64 { return float64(res[leased][p].Revokes) }},
			col{"starved", func(p int) float64 { return float64(res[unleased][p].Starved) }},
			col{"wait-unleased", func(p int) float64 { return res[unleased][p].MaxWait.Seconds() }},
		),
	}
}
