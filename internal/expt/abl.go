package expt

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/channel"
	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/metrics"
	"repro/internal/replica"
)

// ---------------------------------------------------------------------
// Ablations and extension experiments (figures "abl" and "ext")
// ---------------------------------------------------------------------
//
// The paper's claims beyond its seven figures, each a sweep of cells
// built from the scenarios above: the backoff's random factor, its cap,
// the carrier threshold and the probe timeout (abl), and the Chimera
// DAG dispatcher, the NeST-style reservation baseline and the three
// disciplines on a true collision medium (ext). The arms of one
// ablation share a seed, so they differ only in the knob under test.

// channelStations is the station population of every channel cell the
// rows run: thirty stations of 1 ms frames and a 5 ms mean gap offer
// the medium six times what it can carry.
const channelStations = 30

// channelWindow is the window of every channel cell the rows run. The
// medium is cheap to simulate, so neither it nor the population scales.
const channelWindow = 2 * time.Second

// ChannelCell runs n stations of cfg on a fresh channel for the window,
// at opt's seed, and returns the channel for inspection. It is the
// channel scenario outside any sweep.
func ChannelCell(opt Options, n int, window time.Duration, cfg channel.StationConfig) *channel.Channel {
	return channelCell(opt.cell("channel/"+cfg.Discipline.String(), opt.seed(), window, opt.Chaos, opt.Check), n, cfg)
}

// channelCell is the channel scenario.
func channelCell(c cell, n int, cfg channel.StationConfig) *channel.Channel {
	var ch *channel.Channel
	c.run(scenario{
		substrate: func(e core.Backend, _ newCarrier) chaos.Targets {
			ch = channel.New(e)
			return chaos.Targets{Channel: ch}
		},
		checks: func(inv *chaos.Invariants) {
			inv.Monotone("frames", func() float64 { return float64(ch.Successes) })
			inv.Monotone("collisions", func() float64 { return float64(ch.Collisions) })
			inv.Horizon(c.window)
		},
		clients: func(e core.Backend, ctx context.Context) {
			for i := 0; i < n; i++ {
				e.Spawn("station", func(p core.Proc) {
					var st channel.Station
					st.Loop(p, ctx, ch, cfg)
				})
			}
		},
	})
	return ch
}

// Ablations holds the abl row's tables, one per knob: frames delivered
// and collisions of Aloha stations on the channel, randomized or in
// lockstep; jobs and schedd crashes of Aloha submitters per backoff cap
// and of Ethernet submitters per carrier threshold (in % of the FD
// table); transfers and deferrals of Ethernet readers per probe budget.
type Ablations struct {
	Randomization, Cap, Threshold, Probe *metrics.SweepTable
}

// FigAbl runs the ablations of DESIGN.md §6. The submit and reader
// ablations scale as Figures 1 and 7 do; the channel does not scale.
func FigAbl(opt Options) *Ablations {
	return &Ablations{
		Randomization: ablRandomization(opt),
		Cap:           ablCap(opt),
		Threshold:     ablThreshold(opt),
		Probe:         ablProbe(opt),
	}
}

// ablRandomization runs Aloha stations on the channel with the paper's
// random factor and without it: §3's "some asymmetry or random factor
// is needed to discourage cascading collisions".
func ablRandomization(opt Options) *metrics.SweepTable {
	s := sweep{fig: "abl/random", xlabel: "stations", arms: []string{"random", "lockstep"}, xs: []int{channelStations}}
	chs := grid[*channel.Channel](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = channelWindow, opt.Chaos
		cfg := channel.DefaultStationConfig(core.Aloha)
		cfg.Backoff = &core.Backoff{Base: cfg.Frame, Cap: 1024 * cfg.Frame, Factor: 2, RandMin: 1, RandMax: 2}
		if arm == 1 { // lockstep: no random factor
			cfg.Backoff.RandMax = 1
		}
		chs[arm][p] = channelCell(c, s.xs[p], cfg)
	})
	return s.table(append(
		s.armCols("", func(arm, p int) float64 { return float64(chs[arm][p].Successes) }),
		s.armCols("coll-", func(arm, p int) float64 { return float64(chs[arm][p].Collisions) })...)...)
}

// ablSubmit runs one submit cell per arm at Figure 1's contended end,
// each arm's submitter configuration set by tune, and tables jobs and
// crashes per arm.
func ablSubmit(opt Options, fig string, d core.Discipline, arms []string, tune func(arm int, cfg *condor.SubmitterConfig)) *metrics.SweepTable {
	s := sweep{fig: fig, xlabel: "submitters", arms: arms, xs: []int{opt.scaleN(475)}}
	jobs, crashes := grid[int64](s), grid[int64](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = opt.scaleD(SubmitWindow), opt.Chaos
		a := scaledArm(opt, d)
		tune(arm, &a.sub)
		schedd := submitCell(c, s.xs[p], a).cl.Schedd
		jobs[arm][p], crashes[arm][p] = schedd.Jobs, schedd.Crashes
	})
	return s.table(append(
		s.armCols("", func(arm, p int) float64 { return float64(jobs[arm][p]) }),
		s.armCols("crashes-", func(arm, p int) float64 { return float64(crashes[arm][p]) })...)...)
}

// ablCap sweeps the backoff cap: a cap near the base keeps clients
// hammering an overloaded schedd; past the window's longest backoff
// the cap stops mattering.
func ablCap(opt Options) *metrics.SweepTable {
	caps := []time.Duration{2 * time.Second, 16 * time.Second, time.Hour}
	return ablSubmit(opt, "abl/cap", core.Aloha, []string{"2s", "16s", "1h"}, func(arm int, cfg *condor.SubmitterConfig) {
		cfg.Backoff = core.NewBackoff(nil)
		cfg.Backoff.Cap = caps[arm]
	})
}

// ablThreshold sweeps the Ethernet submitter's carrier threshold (§6):
// too low fails to prevent crashes, too high idles the schedd.
func ablThreshold(opt Options) *metrics.SweepTable {
	pcts := []int{1, 12, 99}
	fds := opt.scaleN(condor.DefaultConfig().FDCapacity) // scaledArm's table
	return ablSubmit(opt, "abl/threshold", core.Ethernet, []string{"1%", "12%", "99%"}, func(arm int, cfg *condor.SubmitterConfig) {
		cfg.Threshold = pcts[arm] * fds / 100
	})
}

// ablProbe sweeps the Ethernet reader's flag-probe budget in the
// black-hole scenario: too short rejects healthy but busy servers, too
// long approaches the Aloha penalty.
func ablProbe(opt Options) *metrics.SweepTable {
	probes := []time.Duration{500 * time.Millisecond, 5 * time.Second, 30 * time.Second}
	s := sweep{fig: "abl/probe", xlabel: "readers", arms: []string{"500ms", "5s", "30s"}, xs: []int{ReaderClients}}
	tls := grid[*ReaderTimeline](s)
	window := opt.scaleD(ReaderWindow)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = window, opt.Chaos
		rcfg := replica.DefaultReaderConfig(core.Ethernet)
		rcfg.OuterLimit = window
		rcfg.ProbeTimeout = probes[arm]
		tls[arm][p] = readerCell(c, rcfg)
	})
	return s.table(append(
		s.armCols("", func(arm, p int) float64 { return float64(tls[arm][p].TotalTransfers) }),
		s.armCols("defer-", func(arm, p int) float64 { return float64(tls[arm][p].TotalDeferrals) })...)...)
}

// Extensions holds the ext row's tables: the DAG dispatcher's makespan
// in seconds and the background crowd's jobs, per dispatcher
// discipline; files consumed and write collisions of reserving and
// Ethernet producers, and the allocator's denials; frames delivered and
// collisions per discipline on the channel, and the share of the window
// the channel was busy, in %.
type Extensions struct {
	DAG, Reservation, Channel, Utilization *metrics.SweepTable
}

// FigExt runs the extension experiments: §5's Chimera DAG and NeST
// reservation, and §3's disciplines on the medium they are named after.
func FigExt(opt Options) *Extensions {
	x := &Extensions{DAG: extDAG(opt), Reservation: extReservation(opt)}
	x.Channel, x.Utilization = extChannel(opt)
	return x
}

// dagWindow bounds the DAG cells: long enough for the politest
// dispatcher to finish its DAG behind the crowd.
const dagWindow = 2 * time.Hour

// extDAG runs a Chimera-style DAG dispatcher of each discipline among
// a crowd of Aloha submitters that keeps the FD table saturated. §8:
// "a single obnoxious customer can disrupt a movie theater" — the
// Fixed dispatcher finishes first because everyone else backs off.
func extDAG(opt Options) *metrics.SweepTable {
	s := sweep{fig: "ext/dag", xlabel: "bg-clients", arms: disciplineArms(), xs: []int{opt.scaleN(110)}}
	makespan, bgJobs := grid[time.Duration](s), grid[int64](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = dagWindow, opt.Chaos
		bgCfg := condor.DefaultSubmitterConfig(core.Aloha)
		bgCfg.Threshold = opt.scaleN(250)
		dcfg := condor.DefaultDispatcherConfig(core.Disciplines[arm])
		dcfg.Submit.Threshold = bgCfg.Threshold
		dag := condor.LayeredDAG(rand.New(rand.NewSource(c.seed)), 3, 5, 2)
		var disp condor.Dispatcher
		jobs := submitCell(c, s.xs[p], submitArm{sub: bgCfg, cluster: condor.Config{FDCapacity: opt.scaleN(2048)},
			extra: func(e core.Backend, ctx context.Context, cl *condor.Cluster) {
				e.Spawn("dispatcher", func(p core.Proc) { _ = disp.Run(p, ctx, cl, dag, dcfg) })
			}}).cl.Schedd.Jobs
		makespan[arm][p], bgJobs[arm][p] = disp.Makespan, jobs-disp.Submitted
	})
	return s.table(append(
		s.armCols("", func(arm, p int) float64 { return makespan[arm][p].Seconds() }),
		s.armCols("bg-", func(arm, p int) float64 { return float64(bgJobs[arm][p]) })...)...)
}

// extReservation runs 25 NeST/SRB/SRM-style reserving producers (§5's
// counter-proposal) against 25 Ethernet producers on a 6 MB buffer
// behind a 200 ms allocator round trip (a 2003-era WAN SRM), for the
// ablations' window: reservation never collides, but "the actual
// process of allocation itself may be subject to contention".
func extReservation(opt Options) *metrics.SweepTable {
	s := sweep{fig: "ext/reservation", xlabel: "producers", arms: []string{"reserving", "ethernet"}, xs: []int{25}}
	bufs, allocs := grid[*fsbuffer.Buffer](s), grid[*fsbuffer.Allocator](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = opt.ablationWindow(), opt.Chaos
		d := []core.Discipline{core.Reservation, core.Ethernet}[arm]
		bufs[arm][p], allocs[arm][p] = bufferCell(c, s.xs[p], d, fsbuffer.Config{Capacity: 6 * fsbuffer.MB}, 200*time.Millisecond)
	})
	cols := append(
		s.armCols("", func(arm, p int) float64 { return float64(bufs[arm][p].Consumed) }),
		s.armCols("coll-", func(arm, p int) float64 { return float64(bufs[arm][p].Collisions) })...)
	return s.table(append(cols, col{"denials", func(p int) float64 { return float64(allocs[0][p].Denials) }})...)
}

// extChannel runs the three disciplines on the channel: §3's Aloha
// network "would saturate at an offered load of 18 percent", and
// without backoff the medium carries nothing at all.
func extChannel(opt Options) (frames, util *metrics.SweepTable) {
	s := sweep{fig: "ext/channel", xlabel: "stations", arms: disciplineArms(), xs: []int{channelStations}}
	chs := grid[*channel.Channel](s)
	s.run(opt, func(arm, p int, c cell) {
		c.window, c.plan = channelWindow, opt.Chaos
		chs[arm][p] = channelCell(c, s.xs[p], channel.DefaultStationConfig(core.Disciplines[arm]))
	})
	frames = s.table(append(
		s.armCols("", func(arm, p int) float64 { return float64(chs[arm][p].Successes) }),
		s.armCols("coll-", func(arm, p int) float64 { return float64(chs[arm][p].Collisions) })...)...)
	return frames, s.table(s.armCols("", func(arm, p int) float64 { return 100 * chs[arm][p].Utilization() })...)
}
