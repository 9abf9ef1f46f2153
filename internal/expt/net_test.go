package expt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/lease"
	"repro/internal/replica"
)

// netTestWindow keeps the channel-ablation tests fast while leaving
// the partition phases long enough to dwarf the retry cadence.
const netTestWindow = 2 * time.Minute

// netResult is what the net tests read of one cell: the schedd's
// counts (Phantom is Jobs less Unique), the FD lease wire's ledger and
// the tallied breaches.
type netResult struct {
	Jobs, Unique, Phantom, Deduped, NetDrops int64
	WireDrops, WireDups, Stales, Revokes     int64
	DoubleAllocs                             int
}

// runNet runs one net cell outside the sweep: netSubmit's n submitters
// for the window under the plan, fenced or not.
func runNet(opt Options, seed int64, n int, window time.Duration, plan *chaos.Plan, fenced bool, rec *chaos.Recorder) netResult {
	r := submitCell(opt.cell(fmt.Sprintf("net/%s/n%d", netArm(fenced), n), seed, window, plan, rec), n, netSubmit(window, n, fenced, plan))
	sd, mgr := r.cl.Schedd, r.cl.FDs.(*lease.Manager)
	return netResult{
		Jobs: sd.Jobs, Unique: sd.Unique, Phantom: sd.Jobs - sd.Unique, Deduped: sd.Deduped, NetDrops: sd.NetDrops,
		WireDrops: mgr.Drops, WireDups: mgr.Dups, Stales: mgr.Stales, Revokes: mgr.Revokes,
		DoubleAllocs: r.violations["double-alloc"],
	}
}

// TestNetCellFencedSafety is the tentpole acceptance: with the
// survival mechanisms armed, no channel behaviour the presets can
// produce ever double-allocates the FD table or books a phantom job —
// across both presets, three seeds, and a spread of populations.
func TestNetCellFencedSafety(t *testing.T) {
	for _, preset := range []string{"dup-storm", "part-flap"} {
		for seed := int64(1); seed <= 3; seed++ {
			plan, err := chaos.Preset(preset, seed)
			if err != nil {
				t.Fatal(err)
			}
			rec := &chaos.Recorder{}
			res := runNet(Options{}, seed, 40, netTestWindow, plan, true, rec)
			if err := rec.Err(); err != nil {
				t.Errorf("%s seed %d: fenced cell violated invariants: %v", preset, seed, err)
			}
			if res.Phantom != 0 {
				t.Errorf("%s seed %d: fenced cell booked %d phantom jobs (jobs=%d unique=%d)",
					preset, seed, res.Phantom, res.Jobs, res.Unique)
			}
			if res.Jobs == 0 {
				t.Errorf("%s seed %d: fenced cell made no progress at all", preset, seed)
			}
			t.Logf("%s seed %d fenced: jobs=%d deduped=%d netdrops=%d wire(drop=%d dup=%d stale=%d) revokes=%d",
				preset, seed, res.Jobs, res.Deduped, res.NetDrops,
				res.WireDrops, res.WireDups, res.Stales, res.Revokes)
		}
	}
}

// TestNetCellUnfencedBreaks proves the ablation has teeth: with
// fencing and idempotency disabled, the dup-storm plan books phantom
// jobs and the channel's duplicated/delayed releases double-free the
// FD table until grants exceed capacity.
func TestNetCellUnfencedBreaks(t *testing.T) {
	var phantoms, dallocs int
	for seed := int64(1); seed <= 3; seed++ {
		plan, _ := chaos.Preset("dup-storm", seed)
		res := runNet(Options{}, seed, 40, netTestWindow, plan, false, nil)
		t.Logf("dup-storm seed %d unfenced: jobs=%d phantom=%d dallocs=%d wire(drop=%d dup=%d)",
			seed, res.Jobs, res.Phantom, res.DoubleAllocs, res.WireDrops, res.WireDups)
		if res.Phantom > 0 {
			phantoms++
		}
		if res.DoubleAllocs > 0 {
			dallocs++
		}
	}
	if phantoms == 0 {
		t.Error("unfenced dup-storm cells never booked a phantom job: the ablation is not biting")
	}
	if dallocs == 0 {
		t.Error("unfenced dup-storm cells never double-allocated: the ablation is not biting")
	}
}

// netBufferCell runs fenced reserving producers against the allocator
// with its lease wire routed through the plan's injector, asserting the
// reservation tenure book never admits past capacity.
func netBufferCell(t *testing.T, opt Options, seed int64, window time.Duration, plan *chaos.Plan, rec *chaos.Recorder) {
	t.Helper()
	e := opt.newEngine(seed)
	b := fsbuffer.New(e, fsbuffer.Config{})
	alloc := fsbuffer.NewAllocator(e, b, 0)
	alloc.SetLeaseQuantum(netQuantum(window))
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	plan.Arm(e, chaos.Targets{Window: window, Buffer: b, Allocator: alloc})
	inv := chaos.NewInvariants(e, rec)
	ten := alloc.Tenure()
	inv.NoDoubleAlloc("reservation", ten.Outstanding, func() int64 { return ten.Sense().Capacity })
	if opt.Backend != BackendLive {
		// Horizon is a determinism check: on the live backend the run
		// quiesces within real scheduling jitter of the boundary, which
		// is noise, not a stall.
		inv.Horizon(window)
	}
	inv.Start(ctx)
	e.Spawn("consumer", func(p core.Proc) { b.Consumer(p, ctx) })
	for j := 0; j < 8; j++ {
		j := j
		cfg := fsbuffer.DefaultProducerConfig(core.Reservation)
		e.Spawn(fmt.Sprintf("producer-%d", j), func(p core.Proc) {
			var rp fsbuffer.ReservingProducer
			rp.Loop(p, ctx, alloc, j, cfg)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	inv.Finish()
	if b.Consumed == 0 {
		t.Errorf("fsbuffer cell consumed nothing under %s seed %d", plan.Name, seed)
	}
}

// netReaderCell runs fenced readers against replica servers whose
// service-lane lease wires cross the plan's injector, asserting no lane
// ever admits more transfers than it has slots.
func netReaderCell(t *testing.T, opt Options, seed int64, window time.Duration, plan *chaos.Plan, rec *chaos.Recorder) {
	t.Helper()
	e := opt.newEngine(seed)
	cfg := replica.Config{}
	servers := []*replica.Server{
		replica.NewServer(e, "yyy", false, cfg),
		replica.NewServer(e, "zzz", false, cfg),
	}
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	plan.Arm(e, chaos.Targets{Window: window, Servers: servers})
	inv := chaos.NewInvariants(e, rec)
	for _, s := range servers {
		lane := s.Lane()
		inv.NoDoubleAlloc("lane-"+s.Name, lane.Outstanding, func() int64 { return lane.Sense().Capacity })
	}
	if opt.Backend != BackendLive {
		inv.Horizon(window)
	}
	inv.Start(ctx)
	rcfg := replica.DefaultReaderConfig(core.Ethernet)
	rcfg.OuterLimit = window
	readers := make([]*replica.Reader, 3)
	for i := range readers {
		readers[i] = &replica.Reader{}
		r := readers[i]
		e.Spawn(fmt.Sprintf("reader-%d", i), func(p core.Proc) { r.Loop(p, ctx, servers, rcfg) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	inv.Finish()
	var done int64
	for _, r := range readers {
		done += r.Done
	}
	if done == 0 {
		t.Errorf("replica cell transferred nothing under %s seed %d", plan.Name, seed)
	}
}

// TestNetNoDoubleAllocAcrossScenarios is the cross-substrate acceptance:
// with fencing armed, no channel behaviour the two presets produce ever
// admits a leased resource past capacity — on the condor FD table, the
// fsbuffer reservation book, and the replica service lanes; across
// seeds 1-3; on both the deterministic sim backend and the wall-clock
// live backend. Live runs assert only the safety invariants (fencing is
// structural, so they hold regardless of real scheduling jitter).
func TestNetNoDoubleAllocAcrossScenarios(t *testing.T) {
	backends := []struct {
		name string
		opt  Options
	}{
		{"sim", Options{}},
		// Timescale keeps the shortest chaos feature (a ~6s severed
		// phase at this window) well above real scheduler granularity;
		// see EXPERIMENTS.md for the floor rule.
		{"live", Options{Backend: BackendLive, Timescale: 1000}},
	}
	for _, be := range backends {
		for _, preset := range []string{"dup-storm", "part-flap"} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", be.name, preset, seed), func(t *testing.T) {
					mk := func() *chaos.Plan {
						plan, err := chaos.Preset(preset, seed)
						if err != nil {
							t.Fatal(err)
						}
						return plan
					}
					rec := &chaos.Recorder{}
					res := runNet(be.opt, seed, 40, netTestWindow, mk(), true, nil)
					if res.DoubleAllocs != 0 {
						t.Errorf("condor: fenced FD table double-allocated %d time(s)", res.DoubleAllocs)
					}
					if res.Phantom != 0 {
						t.Errorf("condor: fenced schedd booked %d phantom jobs", res.Phantom)
					}
					netBufferCell(t, be.opt, seed, netTestWindow, mk(), rec)
					netReaderCell(t, be.opt, seed, netTestWindow, mk(), rec)
					if err := rec.Err(); err != nil {
						t.Errorf("fenced cells violated invariants: %v", err)
					}
				})
			}
		}
	}
}
