// Package chaos is a deterministic fault-injection subsystem for the
// simulated grid. The paper's argument is that the Ethernet discipline
// survives failure regimes nobody anticipated; the substrates, left
// alone, only fail in the three ways we baked in (FD exhaustion,
// ENOSPC, black holes). This package lets an experiment *program*
// adverse conditions — transient error bursts, latency spikes,
// capacity squeezes, server flapping, schedd crashes — as a composable
// Plan, and replays them bit-for-bit: every decision is driven by the
// sim engine's virtual clock and a seeded RNG, never the wall clock.
//
// A Plan is pure data. Arming it against a concrete universe (Targets)
// schedules its actions on the engine and yields an Armed injector that
// the substrates consult at their failure sites (core.Injector). The
// companion Invariants type (invariants.go) runs alongside any
// experiment and mechanically asserts the paper's safety and liveness
// properties under the injected faults.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/replica"
	"repro/internal/trace"
)

// Plan is a named, seeded composition of fault specs. It is inert data
// until armed; the same plan can be armed against many universes and
// always produces the same schedule for the same seed.
type Plan struct {
	// Name labels the plan in reports and CLI output.
	Name string
	// Seed drives every random choice the plan makes (window jitter,
	// per-operation error draws). Zero selects 1.
	Seed int64
	// Specs are the composed faults, armed in order.
	Specs []Spec
}

// Spec is one composable fault. Implementations schedule themselves on
// the engine and/or register fault windows on the Armed injector.
type Spec interface {
	arm(a *Armed, t Targets)
}

// Targets names the substrate objects a plan may act on. Nil fields are
// simply skipped, so one plan can be armed against any scenario: specs
// aimed at absent substrates do nothing.
type Targets struct {
	// Window is the experiment horizon; fractional window fields
	// resolve against it.
	Window time.Duration
	// Cluster is the job-submission substrate (FD squeezes, schedd
	// crashes, condor/* sites).
	Cluster *condor.Cluster
	// Buffer is the shared-filesystem substrate (capacity squeezes,
	// fsbuffer/* sites).
	Buffer *fsbuffer.Buffer
	// Allocator is the space-reservation service in front of Buffer
	// (stuck-holder hangs at fsbuffer/hold).
	Allocator *fsbuffer.Allocator
	// Servers are the replica servers (flap toggling, replica/* sites).
	Servers []*replica.Server
	// Channel is the broadcast medium (channel/* sites).
	Channel *channel.Channel
	// Trace, when non-nil, records the plan's scheduled interventions
	// (squeezes, flaps, kills) on a dedicated "chaos" process whose
	// thread name carries the plan name and seed.
	Trace *trace.Tracer
}

// Window locates a fault in virtual time. Absolute fields (Start,
// Duration) are used as-is; when FracDuration > 0 the window is instead
// resolved as fractions of the experiment horizon, which lets presets
// bite at any scale. StartJitter (or FracStartJitter) shifts the start
// by a uniform random amount drawn from the plan's seeded RNG at arm
// time, so different plan seeds exercise different schedules.
type Window struct {
	Start, Duration time.Duration
	StartJitter     time.Duration

	FracStart, FracDuration float64
	FracStartJitter         float64
}

// resolve materializes the window against the horizon using the armed
// plan's RNG. It always draws exactly one random value, so a plan's
// arm-time random consumption is independent of which fields are set.
func (w Window) resolve(a *Armed, horizon time.Duration) (from, to time.Duration) {
	u := a.rng.Float64()
	if w.FracDuration > 0 {
		from = time.Duration(float64(horizon) * (w.FracStart + w.FracStartJitter*u))
		return from, from + time.Duration(float64(horizon)*w.FracDuration)
	}
	from = w.Start + time.Duration(u*float64(w.StartJitter))
	return from, from + w.Duration
}

// ---------------------------------------------------------------------
// Site-fault specs (consulted via the Injector at failure sites)
// ---------------------------------------------------------------------

// ErrorBurst fails operations at Site with probability Prob while the
// window is open — a transient fault storm: refused connections, I/O
// errors, dropped transfers, noise on the wire.
type ErrorBurst struct {
	Window
	// Site is the substrate failure site (condor.InjectConnect, ...).
	Site string
	// Prob is the per-operation failure probability; values >= 1 fail
	// every operation in the window.
	Prob float64
	// Err overrides the injected error (default core.ErrInjected).
	Err error
}

func (s ErrorBurst) arm(a *Armed, t Targets) {
	from, to := s.resolve(a, t.Window)
	err := s.Err
	if err == nil {
		err = core.ErrInjected
	}
	a.addWindow(s.Site, &siteWindow{from: from, to: to, prob: s.Prob, err: err})
}

// LatencySpike adds Extra (plus up to Jitter of seeded random) latency
// to operations at Site while the window is open — a congested link, a
// paging server, a saturated accept queue.
type LatencySpike struct {
	Window
	Site string
	// Extra is the added latency per operation.
	Extra time.Duration
	// Jitter adds a uniform random extra in [0, Jitter) per operation.
	Jitter time.Duration
}

func (s LatencySpike) arm(a *Armed, t Targets) {
	from, to := s.resolve(a, t.Window)
	a.addWindow(s.Site, &siteWindow{from: from, to: to, delay: s.Extra, jitter: s.Jitter})
}

// StuckHolder wedges clients at a hold site with probability Prob while
// the window is open: the victim freezes while owning a contended
// resource — FDs, reserved buffer space, a replica's service lane — and
// never voluntarily lets go. This is the failure mode limited
// allocation exists for: without a lease watchdog the resource is
// pinned until the victim's own outer timeout fires (if it ever does);
// with one, the tenure is revoked and the units reclaimed.
type StuckHolder struct {
	Window
	// Site is a hold site (condor.InjectHold, fsbuffer.InjectHold,
	// replica.InjectHold).
	Site string
	// Prob is the per-operation hang probability; values >= 1 wedge
	// every holder in the window.
	Prob float64
}

func (s StuckHolder) arm(a *Armed, t Targets) {
	from, to := s.resolve(a, t.Window)
	a.addWindow(s.Site, &siteWindow{from: from, to: to, prob: s.Prob, hang: true})
}

// ---------------------------------------------------------------------
// Channel-fault specs (the client<->resource boundary)
// ---------------------------------------------------------------------

// MsgDrop swallows messages at a channel Site with probability Prob
// while the window is open: requests that never arrive, replies and
// release notices that never make it back. The sender observes only
// that the operation did not complete (core.ErrLost at operation
// sites; a silent leak at lease wires, healed by the watchdog).
type MsgDrop struct {
	Window
	// Site is a channel site (condor.InjectNet, fsbuffer.InjectNet,
	// replica.InjectNet, or a substrate's reply site).
	Site string
	// Prob is the per-message drop probability; >= 1 drops every one.
	Prob float64
}

func (s MsgDrop) arm(a *Armed, t Targets) {
	from, to := s.resolve(a, t.Window)
	a.addWindow(s.Site, &siteWindow{from: from, to: to, prob: s.Prob, drop: true})
}

// MsgDup delivers messages at a channel Site twice with probability
// Prob while the window is open: a retransmission whose original was
// not lost after all. Receivers without idempotency keys or fencing
// apply the effect twice — the at-most-once violation this subsystem
// exists to defend against.
type MsgDup struct {
	Window
	Site string
	// Prob is the per-message duplication probability.
	Prob float64
}

func (s MsgDup) arm(a *Armed, t Targets) {
	from, to := s.resolve(a, t.Window)
	a.addWindow(s.Site, &siteWindow{from: from, to: to, prob: s.Prob, dup: true})
}

// MsgDelay holds messages at a channel Site in flight for Extra (plus
// up to Jitter of seeded random) while the window is open. Because
// each message draws its own jitter, adjacent messages can overtake
// one another — delay with jitter is also the reordering fault, and a
// delivery can arrive after the receiver has moved on (where fencing
// decides its fate).
type MsgDelay struct {
	Window
	Site string
	// Extra is the added in-flight time per message.
	Extra time.Duration
	// Jitter adds a uniform random extra in [0, Jitter) per message.
	Jitter time.Duration
}

func (s MsgDelay) arm(a *Armed, t Targets) {
	from, to := s.resolve(a, t.Window)
	a.addWindow(s.Site, &siteWindow{from: from, to: to, delay: s.Extra, jitter: s.Jitter})
}

// Partition severs the named channel sites outright: every message is
// dropped while a severed phase is open, and the window's close is the
// heal. Flaps > 1 splits the window into that many alternating
// sever/heal phases — a flapping link rather than one clean cut. Sites
// lists only the directions cut: naming a substrate's request site but
// not its reply site (or vice versa) models an asymmetric link.
type Partition struct {
	Window
	// Sites are the channel sites the partition severs.
	Sites []string
	// Flaps is the number of severed phases inside the window
	// (alternating with healed phases); <= 1 means one clean cut for
	// the whole window.
	Flaps int
}

func (s Partition) arm(a *Armed, t Targets) {
	from, to := s.resolve(a, t.Window)
	flaps := s.Flaps
	if flaps <= 1 {
		for _, site := range s.Sites {
			a.addWindow(site, &siteWindow{from: from, to: to, prob: 1, drop: true})
		}
		return
	}
	// 2*flaps-1 equal phases: severed, healed, severed, ... severed.
	phase := (to - from) / time.Duration(2*flaps-1)
	for i := 0; i < flaps; i++ {
		start := from + time.Duration(2*i)*phase
		for _, site := range s.Sites {
			a.addWindow(site, &siteWindow{from: start, to: start + phase, prob: 1, drop: true})
		}
	}
}

// ---------------------------------------------------------------------
// Scheduled-action specs (act on substrate state via engine timers)
// ---------------------------------------------------------------------

// FDSqueeze shrinks the kernel FD table to Factor of its capacity for
// the window, then restores it — an administrator lowering fs.file-max,
// or another daemon leaking descriptors.
type FDSqueeze struct {
	Window
	// Factor is the squeezed capacity as a fraction of the original.
	Factor float64
}

func (s FDSqueeze) arm(a *Armed, t Targets) {
	if t.Cluster == nil {
		a.rng.Float64() // keep arm-time random consumption uniform
		return
	}
	from, to := s.resolve(a, t.Window)
	fds := t.Cluster.FDs
	orig := int64(-1)
	a.eng.Schedule(from, func() {
		orig = fds.Sense().Capacity
		fds.SetCapacity(int64(float64(orig) * s.Factor))
		a.action("chaos/fd-squeeze")
	})
	a.eng.Schedule(to, func() {
		if orig >= 0 {
			fds.SetCapacity(orig)
		}
	})
}

// BufferSqueeze shrinks the shared filesystem buffer to Factor of its
// capacity for the window, then restores it — another tenant filling
// the disk.
type BufferSqueeze struct {
	Window
	Factor float64
}

func (s BufferSqueeze) arm(a *Armed, t Targets) {
	if t.Buffer == nil {
		a.rng.Float64()
		return
	}
	from, to := s.resolve(a, t.Window)
	b := t.Buffer
	orig := int64(-1)
	a.eng.Schedule(from, func() {
		orig = b.Config().Capacity
		b.SetCapacity(int64(float64(orig) * s.Factor))
		a.action("chaos/buffer-squeeze")
	})
	a.eng.Schedule(to, func() {
		if orig >= 0 {
			b.SetCapacity(orig)
		}
	})
}

// ServerFlap toggles a replica server's black-hole state while the
// window is open: the server wedges for one Period, recovers for the
// next, and so on — a service bouncing in and out of health. The
// original health is restored when the window closes.
type ServerFlap struct {
	Window
	// Server indexes Targets.Servers; out-of-range flaps are skipped.
	Server int
	// Period is one sick (or healthy) phase. When FracPeriod > 0 the
	// period is that fraction of the horizon instead.
	Period     time.Duration
	FracPeriod float64
}

func (s ServerFlap) arm(a *Armed, t Targets) {
	if s.Server < 0 || s.Server >= len(t.Servers) {
		a.rng.Float64()
		return
	}
	from, to := s.resolve(a, t.Window)
	period := s.Period
	if s.FracPeriod > 0 {
		period = time.Duration(float64(t.Window) * s.FracPeriod)
	}
	if period <= 0 {
		return
	}
	srv := t.Servers[s.Server]
	orig := srv.BlackHole
	sick := false
	var flip func()
	flip = func() {
		if a.eng.Elapsed() >= to {
			srv.SetBlackHole(orig)
			return
		}
		sick = !sick
		srv.SetBlackHole(sick)
		a.action("chaos/server-flap")
		a.eng.Schedule(period, flip)
	}
	a.eng.Schedule(from, flip)
	a.eng.Schedule(to, func() { srv.SetBlackHole(orig) })
}

// ScheddCrash kills the schedd at a point in time (and optionally again
// on a cadence): the broadcast jam on demand, without waiting for FD
// starvation to produce it.
type ScheddCrash struct {
	// At is the first kill. When FracAt > 0 it is that fraction of the
	// horizon instead.
	At     time.Duration
	FracAt float64
	// Every repeats the kill (FracEvery as a fraction of the horizon);
	// zero means no repeat.
	Every     time.Duration
	FracEvery float64
	// Count bounds the kills; zero means 1.
	Count int
}

func (s ScheddCrash) arm(a *Armed, t Targets) {
	if t.Cluster == nil {
		return
	}
	at := s.At
	if s.FracAt > 0 {
		at = time.Duration(float64(t.Window) * s.FracAt)
	}
	every := s.Every
	if s.FracEvery > 0 {
		every = time.Duration(float64(t.Window) * s.FracEvery)
	}
	count := s.Count
	if count <= 0 {
		count = 1
	}
	schedd := t.Cluster.Schedd
	for i := 0; i < count; i++ {
		when := at + time.Duration(i)*every
		a.eng.Schedule(when, func() {
			schedd.Kill()
			a.action("chaos/schedd-crash")
		})
		if every <= 0 {
			break
		}
	}
}

// ---------------------------------------------------------------------
// Armed plan
// ---------------------------------------------------------------------

// siteWindow is one materialized fault window at one site.
type siteWindow struct {
	from, to time.Duration
	prob     float64 // error/hang/drop/dup probability (>= 1 always fires)
	err      error   // nil for latency-only windows
	delay    time.Duration
	jitter   time.Duration
	hang     bool // wedge the holder instead of erroring
	drop     bool // swallow the message at a channel site
	dup      bool // deliver the message twice at a channel site
}

// Armed is a plan bound to an engine and a universe. It implements
// core.Injector; Arm installs it on every target substrate, so the
// substrates' failure sites consult it for the rest of the run.
type Armed struct {
	plan    *Plan
	eng     core.Backend
	rng     *rand.Rand
	windows map[string][]*siteWindow
	tr      *trace.Client

	// Injected tallies, for reports: errors, delays, and hangs handed
	// out at sites, message drops/duplications at channel sites, and
	// scheduled actions (squeezes, flaps, kills) performed.
	Errors  int64
	Delays  int64
	Hangs   int64
	Drops   int64
	Dups    int64
	Actions int64
	perSite map[string]int64
}

// Arm schedules the plan's actions on engine e, installs the resulting
// injector on every non-nil target substrate, and returns it. Arm must
// be called before e.Run (or under the engine token). Identical plans,
// seeds, and targets always produce identical schedules.
func (p *Plan) Arm(e core.Backend, t Targets) *Armed {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	a := &Armed{
		plan:    p,
		eng:     e,
		rng:     rand.New(rand.NewSource(seed)),
		windows: make(map[string][]*siteWindow),
		perSite: make(map[string]int64),
	}
	if t.Trace != nil {
		a.tr = t.Trace.NewClient("chaos", fmt.Sprintf("%s seed=%d", p.Name, seed), e.Elapsed)
	}
	for _, s := range p.Specs {
		s.arm(a, t)
	}
	if t.Cluster != nil {
		t.Cluster.SetInjector(a)
	}
	if t.Buffer != nil {
		t.Buffer.SetInjector(a)
	}
	if t.Allocator != nil {
		t.Allocator.SetInjector(a)
	}
	for _, srv := range t.Servers {
		srv.SetInjector(a)
	}
	if t.Channel != nil {
		t.Channel.SetInjector(a)
	}
	return a
}

// action records one scheduled intervention against the site label,
// tracing it when the plan was armed with a tracer.
func (a *Armed) action(site string) {
	a.Actions++
	a.tr.FaultInjected(site)
}

// addWindow registers a fault window for a site.
func (a *Armed) addWindow(site string, w *siteWindow) {
	a.windows[site] = append(a.windows[site], w)
}

// Inject implements core.Injector: it folds every open window at the
// site into one Fault. Probabilistic draws come from the plan's own
// seeded RNG, so fault schedules never perturb the clients' randomness.
func (a *Armed) Inject(site string) core.Fault {
	var f core.Fault
	now := a.eng.Elapsed()
	for _, w := range a.windows[site] {
		if now < w.from || now >= w.to {
			continue
		}
		if w.delay > 0 || w.jitter > 0 {
			d := w.delay
			if w.jitter > 0 {
				d += time.Duration(a.rng.Float64() * float64(w.jitter))
			}
			f.Delay += d
			a.Delays++
			a.perSite[site]++
		}
		if w.err != nil && (w.prob >= 1 || a.rng.Float64() < w.prob) {
			f.Err = w.err
			a.Errors++
			a.perSite[site]++
		}
		if w.hang && (w.prob >= 1 || a.rng.Float64() < w.prob) {
			f.Hang = true
			a.Hangs++
			a.perSite[site]++
		}
		if w.drop && (w.prob >= 1 || a.rng.Float64() < w.prob) {
			f.Drop = true
			a.Drops++
			a.perSite[site]++
		}
		if w.dup && (w.prob >= 1 || a.rng.Float64() < w.prob) {
			f.Dup = true
			a.Dups++
			a.perSite[site]++
		}
	}
	return f
}

// Summary renders a one-line deterministic report of what the armed
// plan actually did, site tallies in sorted order.
func (a *Armed) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos[%s seed=%d]: %d errors, %d delays, %d actions",
		a.plan.Name, a.plan.Seed, a.Errors, a.Delays, a.Actions)
	if a.Hangs > 0 {
		fmt.Fprintf(&b, ", %d hangs", a.Hangs)
	}
	if a.Drops > 0 {
		fmt.Fprintf(&b, ", %d drops", a.Drops)
	}
	if a.Dups > 0 {
		fmt.Fprintf(&b, ", %d dups", a.Dups)
	}
	if len(a.perSite) > 0 {
		sites := make([]string, 0, len(a.perSite))
		for s := range a.perSite {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, s := range sites {
			fmt.Fprintf(&b, " %s=%d", s, a.perSite[s])
		}
	}
	return b.String()
}
