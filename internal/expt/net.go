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

// NetCellResult is one channel-ablation cell's accounting.
type NetCellResult struct {
	// Jobs is total jobs the schedd booked; Unique the distinct work
	// units completed (idempotency keys); Phantom the difference —
	// effects applied more than once per work unit. Fenced cells keep
	// Phantom at zero.
	Jobs, Unique, Phantom int64
	// Deduped counts duplicate submissions the seen-set absorbed;
	// NetDrops counts submit requests or replies the channel swallowed.
	Deduped, NetDrops int64
	// WireDrops, WireDups, Stales are the FD lease wire's tallies:
	// control messages lost, duplicated, and rejected by the fence.
	WireDrops, WireDups, Stales int64
	// Revokes counts FD tenures the watchdog reclaimed — under drops
	// this is the healing path for leases whose release never arrived.
	Revokes int64
	// DoubleAllocs counts double-alloc invariant excursions (lease
	// units outstanding exceeded capacity); ConsViolations counts
	// conservation excursions (Jobs diverged from Unique); HealViolations
	// counts post-heal liveness failures.
	DoubleAllocs, ConsViolations, HealViolations int
}

// NetCell runs n Ethernet submitters for the window under a channel
// fault plan, with the survival mechanisms armed (fenced) or disabled.
// Violations are tallied into the result; when rec is non-nil they are
// also forwarded, so an acceptance suite can demand a clean fenced run.
func NetCell(opt Options, seed int64, n int, window time.Duration, plan *chaos.Plan, fenced bool, rec *chaos.Recorder) *NetCellResult {
	return netCell(opt.cell(fmt.Sprintf("net/%s/n%d", netArm(fenced), n), seed, window, plan, rec), n, fenced)
}

// netArm names the two arms of the ablation, in traces and labels.
func netArm(fenced bool) string {
	if fenced {
		return "fenced"
	}
	return "unfenced"
}

// netCell is the unreliable-channel scenario.
func netCell(c cell, n int, fenced bool) *NetCellResult {
	quantum := netQuantum(c.window)
	var cl *condor.Cluster
	var mgr *lease.Manager
	res := &NetCellResult{}
	c.run(scenario{
		// The ablation reads the manager's wire ledger, so its table is
		// a lease.Manager whatever the backend.
		substrate: func(e core.Backend, _ newCarrier) chaos.Targets {
			cl = condor.NewClusterOn(e, condor.Config{
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
				FDCapacity:   6 * n,
				ServiceSlots: n,
				LeaseQuantum: quantum,
				RestartDelay: quantum,
				Unfenced:     !fenced,
			}, func(capacity int64, quantum time.Duration) lease.Carrier {
				mgr = lease.New(e, "fds", capacity, quantum)
				return mgr
			})
			return chaos.Targets{Cluster: cl}
		},
		daemons: func(ctx context.Context) { cl.StartHousekeeping(ctx) },
		checks: func(inv *chaos.Invariants) {
			inv.Monotone("jobs", func() float64 { return float64(cl.Schedd.Jobs) })
			inv.Horizon(c.window)
			inv.NoDoubleAlloc("fds", mgr.Outstanding, mgr.Capacity)
			inv.Conservation("submit",
				func() int64 { return cl.Schedd.Jobs },
				func() int64 { return cl.Schedd.Unique })
			if c.plan != nil && c.plan.Name == "part-flap" {
				healAt := time.Duration(float64(c.window) * netHealFrac)
				inv.HealLiveness("jobs",
					func() float64 { return float64(cl.Schedd.Jobs) }, healAt, c.window/10)
			}
		},
		// Violations are detected locally even for the unfenced cell, whose
		// breaches are the expected measurement, not an experiment failure.
		tally: func(v chaos.Violation) {
			switch v.Check {
			case "double-alloc":
				res.DoubleAllocs++
			case "conservation":
				res.ConsViolations++
			case "heal-liveness":
				res.HealViolations++
			}
		},
		gauges: func(sc *obs.Scope) { obsCluster(sc, cl) },
		clients: func(e core.Backend, ctx context.Context) {
			for i := 0; i < n; i++ {
				sub := &condor.Submitter{}
				cfg := condor.SubmitterConfig{
					Discipline: core.Ethernet,
					// One work unit spans the whole window: a unit abandoned
					// mid-partition would understate the retry pressure the
					// budget exists to absorb.
					// The carrier threshold sits below the (shrunken) capacity so
					// honest clients still get through; think time is short so
					// the population keeps real pressure on the table.
					TryLimit:  c.window,
					Threshold: 2 * n,
					ThinkTime: time.Second,
					// The same capped backoff as the other ablations, so a
					// deferred client re-senses within the reclamation cycle.
					Backoff: &core.Backoff{Base: time.Second, Cap: quantum / 2, Factor: 2, RandMin: 1, RandMax: 2},
					// The retry budget is armed in BOTH cells — it is a
					// graceful-degradation mechanism, not a correctness one, and
					// differing retry cadence would confound the ablation.
					Budget: &core.RetryBudget{Rate: 0.5, Burst: 5},
					Trace:  c.client(e, netArm(fenced), "submitter", i),
				}
				// Unique process names: the lease ledger keys holders by name.
				e.Spawn(fmt.Sprintf("submitter-%d", i), func(p core.Proc) {
					sub.Loop(p, ctx, cl, cfg)
				})
			}
		},
	})
	res.Jobs = cl.Schedd.Jobs
	res.Unique = cl.Schedd.Unique
	res.Phantom = cl.Schedd.Jobs - cl.Schedd.Unique
	res.Deduped = cl.Schedd.Deduped
	res.NetDrops = cl.Schedd.NetDrops
	res.WireDrops = mgr.Drops
	res.WireDups = mgr.Dups
	res.Stales = mgr.Stales
	res.Revokes = mgr.Revokes
	return res
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
	res := grid[*NetCellResult](s)
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
		res[arm][p] = netCell(c, s.xs[p], fenced)
	})
	return &NetAblation{
		Throughput: s.table(
			col{"fenced-dup", func(p int) float64 { return float64(res[fDup][p].Jobs) }},
			col{"unfenced-dup", func(p int) float64 { return float64(res[uDup][p].Jobs) }},
			col{"fenced-part", func(p int) float64 { return float64(res[fPart][p].Jobs) }},
			col{"unfenced-part", func(p int) float64 { return float64(res[uPart][p].Jobs) }},
		),
		Integrity: s.table(
			col{"phantom-dup", func(p int) float64 { return float64(res[uDup][p].Phantom) }},
			col{"phantom-part", func(p int) float64 { return float64(res[uPart][p].Phantom) }},
			col{"dalloc-dup", func(p int) float64 { return float64(res[uDup][p].DoubleAllocs) }},
			col{"dalloc-part", func(p int) float64 { return float64(res[uPart][p].DoubleAllocs) }},
			col{"stales-dup", func(p int) float64 { return float64(res[fDup][p].Stales) }},
			col{"stales-part", func(p int) float64 { return float64(res[fPart][p].Stales) }},
			col{"deduped-dup", func(p int) float64 { return float64(res[fDup][p].Deduped) }},
		),
		Channel: s.table(
			col{"req-drops-dup", func(p int) float64 { return float64(res[fDup][p].NetDrops) }},
			col{"req-drops-part", func(p int) float64 { return float64(res[fPart][p].NetDrops) }},
			col{"wire-drops-part", func(p int) float64 { return float64(res[fPart][p].WireDrops) }},
			col{"wire-dups-dup", func(p int) float64 { return float64(res[fDup][p].WireDups) }},
			col{"revokes-part", func(p int) float64 { return float64(res[fPart][p].Revokes) }},
		),
	}
}
