package expt

import (
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/metrics"
)

// ---------------------------------------------------------------------
// Unreliable-channel ablation (figure "net")
// ---------------------------------------------------------------------
//
// The paper's disciplines assume the channel between client and
// resource delivers each message once or not at all, and tells the
// client which. Real grids get neither guarantee: requests vanish,
// acknowledgements are retransmitted after the original survived, and
// partitions sever whole link directions and heal later. This figure
// runs the Ethernet submit scenario under two such regimes — the
// "dup-storm" plan (duplication, loss, reordering) and the "part-flap"
// plan (a flapping partition) — twice each: once with the survival
// mechanisms armed (epoch-fenced lease wires, idempotency-keyed
// submission, token-bucket retry budgets) and once with them disabled
// (condor.Config.Unfenced).
//
// The headline is a safety result, not a throughput curve: the fenced
// arm never double-allocates descriptors (lease units outstanding stay
// within capacity) and never books a phantom job (Jobs == Unique); the
// unfenced arm does both, because a duplicated or delayed release
// double-frees the FD table and a retried work unit re-runs. The
// fenced arm's cost is visible in the stale-message and dedup tallies
// — the price of at-most-once is saying "no" to ghosts.

// NetSweep is the submitter counts swept by FigNet.
var NetSweep = []int{50, 100, 200}

// netQuantum derives the FD tenure quantum for the channel ablation: a
// twentieth of the window, half the other ablations' cycle, because
// under message loss the watchdog is the only release path for leases
// whose end the channel swallowed.
func netQuantum(window time.Duration) time.Duration { return window / 20 }

// netHealFrac locates the worst-case heal of the part-flap plan's
// partition window: FracStart 0.15 + FracStartJitter 0.2 + duration
// 0.5 puts the last severed phase's close at 0.85 of the horizon; the
// heal-liveness clock starts just past it.
const netHealFrac = 0.87

// netArm names the two arms of the ablation, in traces and labels.
func netArm(fenced bool) string {
	if fenced {
		return "fenced"
	}
	return "unfenced"
}

// netSubmit is the net arm: n Ethernet submitters for the window under
// the channel fault plan, with the survival mechanisms armed (fenced)
// or disabled. Its breaches are its measurement, tallied under
// "double-alloc", "conservation" and "heal-liveness". The FD table is
// the cell's carrier, a lease.Manager on the backends the row serves
// (sim and live): the suite reads its wire ledger.
func netSubmit(window time.Duration, n int, fenced bool, plan *chaos.Plan) submitArm {
	quantum := netQuantum(window)
	return submitArm{
		sub: condor.SubmitterConfig{
			Discipline: core.Ethernet,
			// One work unit spans the whole window: a unit abandoned
			// mid-partition would understate the retry pressure the
			// budget exists to absorb.
			// The carrier threshold sits below the (shrunken) capacity so
			// honest clients still get through; think time is short so
			// the population keeps real pressure on the table.
			TryLimit:  window,
			Threshold: 2 * n,
			ThinkTime: time.Second,
			Backoff:   ablationBackoff(quantum),
			// The retry budget is armed in BOTH arms — it is a
			// graceful-degradation mechanism, not a correctness one, and
			// differing retry cadence would confound the ablation.
			Budget: &core.RetryBudget{Rate: 0.5, Burst: 5},
		},
		// Tighter provisioning than the other ablations: the table fits
		// only a fraction of the population's peak demand, so admission
		// genuinely gates progress. That is what makes ledger corruption
		// observable — once double-frees understate the books, the
		// manager admits real demand beyond true capacity and the
		// no-double-allocation invariant has something to catch. The
		// quantum is short (a twentieth of the window) so leases whose
		// release the channel swallowed are zombies briefly, not for a
		// whole reclamation epoch — under drops the watchdog is the
		// release path, and it must cycle faster than zombies accumulate.
		// The restart delay is one quantum too: a schedd crashed by
		// housekeeping starvation mid-partition restarts into a table
		// the watchdog has already drained, instead of sitting out a
		// default 30s (a quarter of a short window) and re-crashing
		// into the same jam.
		cluster: condor.Config{
			FDCapacity:   6 * n,
			ServiceSlots: n,
			LeaseQuantum: quantum,
			RestartDelay: quantum,
			Unfenced:     !fenced,
		},
		process: netArm(fenced),
		checks: func(inv *chaos.Invariants, r *submitRun) {
			mgr := r.cl.FDs.(*lease.Manager)
			inv.Monotone("jobs", func() float64 { return float64(r.cl.Schedd.Jobs) })
			inv.Horizon(window)
			inv.NoDoubleAlloc("fds", mgr.Outstanding, func() int64 { return mgr.Sense().Capacity })
			inv.Conservation("submit",
				func() int64 { return r.cl.Schedd.Jobs },
				func() int64 { return r.cl.Schedd.Unique })
			if plan != nil && plan.Name == "part-flap" {
				healAt := time.Duration(float64(window) * netHealFrac)
				inv.HealLiveness("jobs",
					func() float64 { return float64(r.cl.Schedd.Jobs) }, healAt, window/10)
			}
		},
		tally: true,
	}
}

// NetAblation holds the figure's three tables.
type NetAblation struct {
	// Throughput: jobs submitted, fenced vs unfenced, per plan.
	Throughput *metrics.SweepTable
	// Integrity: the safety ledger — phantom jobs and double-alloc
	// excursions in the unfenced arms, and what the fenced arms paid
	// instead (fence rejections, deduplicated retries).
	Integrity *metrics.SweepTable
	// Channel: what the channel actually did to the fenced arms —
	// submit-path losses, lease-control losses and duplicates, and the
	// watchdog revocations that healed the dropped releases.
	Channel *metrics.SweepTable
}

// netSweep declares the ablation's cells: four per population, in
// fixed order — fenced/unfenced under dup-storm, then fenced/unfenced
// under part-flap — matching the serial emission order of traces and
// violations.
func netSweep(Options) sweep {
	return sweep{fig: "net", xlabel: "submitters", arms: []string{"fenced-dup", "unfenced-dup", "fenced-part", "unfenced-part"}, xs: slices.Clone(NetSweep), byX: true}
}

// FigNet runs the unreliable-channel ablation: each population in
// NetSweep runs four cells — fenced and unfenced, each under the
// "dup-storm" and "part-flap" plans (opt.Chaos overrides both).
// Violations from the fenced cells go to opt.Check — the defended
// universe must never double-allocate, never book a phantom job, and
// must make progress after the partition heals; the unfenced cells'
// violations are the measurement. Populations and window follow
// Options.ablationWindow, so the partition phases dwarf the retry
// cadence at every scale (see EXPERIMENTS.md on choosing -timescale
// for live runs).
func FigNet(opt Options) *NetAblation {
	s := netSweep(opt)
	window := opt.ablationWindow()
	const fDup, uDup, fPart, uPart = 0, 1, 2, 3
	// phantom is jobs booked more than once per work unit (Jobs less
	// Unique); the wire counts are the FD lease wire's ledger.
	type reading struct {
		jobs, phantom, deduped, netDrops     int64
		wireDrops, wireDups, stales, revokes int64
		dalloc                               int
	}
	res := grid[reading](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window = window
		if c.plan = opt.Chaos; c.plan == nil {
			name := "dup-storm"
			if arm == fPart || arm == uPart {
				name = "part-flap"
			}
			c.plan, _ = chaos.Preset(name, c.seed)
		}
		fenced := arm == fDup || arm == fPart
		if !fenced {
			c.rec = nil
		}
		r := submitCell(c, s.xs[p], netSubmit(window, s.xs[p], fenced, c.plan))
		sd, mgr := r.cl.Schedd, r.cl.FDs.(*lease.Manager)
		res[arm][p] = reading{sd.Jobs, sd.Jobs - sd.Unique, sd.Deduped, sd.NetDrops,
			mgr.Drops, mgr.Dups, mgr.Stales, mgr.Revokes, r.violations["double-alloc"]}
	})
	return &NetAblation{
		Throughput: s.table(
			col{"fenced-dup", func(p int) float64 { return float64(res[fDup][p].jobs) }},
			col{"unfenced-dup", func(p int) float64 { return float64(res[uDup][p].jobs) }},
			col{"fenced-part", func(p int) float64 { return float64(res[fPart][p].jobs) }},
			col{"unfenced-part", func(p int) float64 { return float64(res[uPart][p].jobs) }},
		),
		Integrity: s.table(
			col{"phantom-dup", func(p int) float64 { return float64(res[uDup][p].phantom) }},
			col{"phantom-part", func(p int) float64 { return float64(res[uPart][p].phantom) }},
			col{"dalloc-dup", func(p int) float64 { return float64(res[uDup][p].dalloc) }},
			col{"dalloc-part", func(p int) float64 { return float64(res[uPart][p].dalloc) }},
			col{"stales-dup", func(p int) float64 { return float64(res[fDup][p].stales) }},
			col{"stales-part", func(p int) float64 { return float64(res[fPart][p].stales) }},
			col{"deduped-dup", func(p int) float64 { return float64(res[fDup][p].deduped) }},
		),
		Channel: s.table(
			col{"req-drops-dup", func(p int) float64 { return float64(res[fDup][p].netDrops) }},
			col{"req-drops-part", func(p int) float64 { return float64(res[fPart][p].netDrops) }},
			col{"wire-drops-part", func(p int) float64 { return float64(res[fPart][p].wireDrops) }},
			col{"wire-dups-dup", func(p int) float64 { return float64(res[fDup][p].wireDups) }},
			col{"revokes-part", func(p int) float64 { return float64(res[fPart][p].revokes) }},
		),
	}
}
