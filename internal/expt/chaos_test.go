package expt

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/replica"
	"repro/internal/sim"
)

// The chaos sweeps below re-run each scenario under ~20 seeded fault
// plans (every preset crossed with several schedule seeds) and assert
// that the paper's qualitative result — Ethernet >= Aloha >= Fixed —
// survives injected faults, and that the invariant suite stays clean.
// Individual plans get a little slack (a well-aimed burst can nick any
// discipline); the aggregate over all plans must be strictly ordered.

// sweepOrder lists the disciplines worst-to-best, so index i of the
// result arrays below is [fixed, aloha, ethernet].
var sweepOrder = []core.Discipline{core.Fixed, core.Aloha, core.Ethernet}

// chaosPlans returns every preset armed with each of the given seeds.
func chaosPlans(t *testing.T, seeds ...int64) []*chaos.Plan {
	t.Helper()
	var plans []*chaos.Plan
	for _, name := range chaos.Names() {
		if name == "stuck-holder" {
			// Covered by the dedicated lease-ablation sweep (lease_test.go):
			// against unleased legacy cells a wedged holder pins the
			// resource by design, which is the point of that sweep, not a
			// regression in the discipline ordering measured here.
			continue
		}
		if name == "res-flap" {
			// Covered by the reservation sweep (res_test.go) for the same
			// reason: its stuck holders wedge the legacy cells by design.
			continue
		}
		if name == "part-flap" || name == "dup-storm" {
			// Covered by the channel-ablation sweep (net_test.go): these
			// plans sever or scramble the lease control wires, so dropped
			// releases pin descriptors as zombies by design — a regime the
			// net cells provision for and the legacy geometry does not.
			continue
		}
		for _, s := range seeds {
			p, err := chaos.Preset(name, s)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
	}
	return plans
}

// orderedWithSlack checks eth >= aloha*slack && aloha >= fixed*slack.
func orderedWithSlack(eth, aloha, fixed float64, slack float64) bool {
	return eth >= aloha*slack && aloha >= fixed*slack
}

func TestChaosSweepCondor(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is not short")
	}
	opt := Options{Scale: 0.1}
	window := opt.scaleD(SubmitWindow)
	n := opt.scaleN(400)
	plans := chaosPlans(t, 1, 2, 3)
	if len(plans) < 18 {
		t.Fatalf("only %d plans", len(plans))
	}
	rec := &chaos.Recorder{}
	opt.Check = rec
	// Four arms per plan: the three legacy disciplines plus Reservation.
	arms := len(sweepOrder) + 1
	cells := make([]float64, len(plans)*arms)
	runCells(opt, len(cells), func(i int, c cell) {
		c.seed, c.window, c.plan = opt.seed(), window, plans[i/arms]
		arm := i % arms
		if arm == len(sweepOrder) {
			// The reservation arm runs its own cell geometry (admission
			// book over the client FD share). Its starvation acceptance
			// has a dedicated budget in res_test.go, so only throughput is
			// measured here.
			c.rec = nil
			cells[i] = float64(submitCell(c, n, resSubmit(c.window, n)).cl.Schedd.Jobs)
			return
		}
		cells[i] = float64(submitCell(c, n, scaledArm(opt, sweepOrder[arm])).cl.Schedd.Jobs)
	})
	var sum [4]float64
	for pi, plan := range plans {
		jobs := cells[pi*arms : pi*arms+arms]
		for i := range sum {
			sum[i] += jobs[i]
		}
		t.Logf("%-8s seed=%d: fixed=%5.0f aloha=%5.0f ethernet=%5.0f res=%5.0f",
			plan.Name, plan.Seed, jobs[0], jobs[1], jobs[2], jobs[3])
		if !orderedWithSlack(jobs[2], jobs[1], jobs[0], 0.85) {
			t.Errorf("plan %s seed %d: ordering broken: fixed=%v aloha=%v ethernet=%v",
				plan.Name, plan.Seed, jobs[0], jobs[1], jobs[2])
		}
		if jobs[3] == 0 {
			t.Errorf("plan %s seed %d: reservation arm did no work", plan.Name, plan.Seed)
		}
	}
	if !(sum[2] > sum[1] && sum[1] > sum[0]) {
		t.Errorf("aggregate ordering broken: fixed=%v aloha=%v ethernet=%v", sum[0], sum[1], sum[2])
	}
	// Admission control must at least beat the discipline-free baseline
	// in aggregate across the whole fault matrix.
	if sum[3] <= sum[0] {
		t.Errorf("aggregate reservation=%v not above fixed=%v", sum[3], sum[0])
	}
	if err := rec.Err(); err != nil {
		t.Errorf("invariants under chaos: %v", err)
	}
}

func TestChaosSweepBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is not short")
	}
	opt := Options{Scale: 0.1}
	window := opt.scaleD(BufferWindow)
	n := 25 // paper-scale producer count; the cell itself is cheap
	plans := chaosPlans(t, 1, 2, 3)
	rec := &chaos.Recorder{}
	opt.Check = rec
	arms := len(sweepOrder) + 1
	cells := make([]float64, len(plans)*arms)
	runCells(opt, len(cells), func(i int, c cell) {
		c.seed, c.window, c.plan = opt.seed(), window, plans[i/arms]
		d := core.Reservation
		if arm := i % arms; arm < len(sweepOrder) {
			d = sweepOrder[arm]
		}
		b, _ := bufferCell(c, n, d, fsbuffer.Config{}, 0)
		cells[i] = float64(b.Consumed)
	})
	var sum [4]float64
	for pi, plan := range plans {
		consumed := cells[pi*arms : pi*arms+arms]
		for i := range sum {
			sum[i] += consumed[i]
		}
		t.Logf("%-8s seed=%d: fixed=%5.0f aloha=%5.0f ethernet=%5.0f res=%5.0f",
			plan.Name, plan.Seed, consumed[0], consumed[1], consumed[2], consumed[3])
		if !orderedWithSlack(consumed[2], consumed[1], consumed[0], 0.85) {
			t.Errorf("plan %s seed %d: ordering broken: fixed=%v aloha=%v ethernet=%v",
				plan.Name, plan.Seed, consumed[0], consumed[1], consumed[2])
		}
		if consumed[3] == 0 {
			t.Errorf("plan %s seed %d: reservation arm did no work", plan.Name, plan.Seed)
		}
	}
	if !(sum[2] > sum[1] && sum[1] > sum[0]) {
		t.Errorf("aggregate ordering broken: fixed=%v aloha=%v ethernet=%v", sum[0], sum[1], sum[2])
	}
	if sum[3] <= sum[0] {
		t.Errorf("aggregate reservation=%v not above fixed=%v", sum[3], sum[0])
	}
	if err := rec.Err(); err != nil {
		t.Errorf("invariants under chaos: %v", err)
	}
}

// fixedReaderConfig models the paper's Fixed reader: no per-attempt
// timeout at all, so a black hole absorbs the client until the outer
// work-unit budget expires.
func fixedReaderConfig(window time.Duration) replica.ReaderConfig {
	rcfg := replica.DefaultReaderConfig(core.Fixed)
	rcfg.OuterLimit = window
	rcfg.DataTimeout = window
	return rcfg
}

func TestChaosSweepReader(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is not short")
	}
	opt := Options{Scale: 1.0}
	window := opt.scaleD(ReaderWindow)
	plans := chaosPlans(t, 1, 2, 3)
	rec := &chaos.Recorder{}
	mk := func(d core.Discipline) replica.ReaderConfig {
		if d == core.Fixed {
			return fixedReaderConfig(window)
		}
		rcfg := replica.DefaultReaderConfig(d)
		rcfg.OuterLimit = window
		return rcfg
	}
	opt.Check = rec
	arms := len(sweepOrder) + 1
	cells := make([]float64, len(plans)*arms)
	runCells(opt, len(cells), func(i int, c cell) {
		c.seed, c.window, c.plan = opt.seed(), window, plans[i/arms]
		rcfg := replica.DefaultReaderConfig(core.Reservation)
		rcfg.OuterLimit = window
		if arm := i % arms; arm < len(sweepOrder) {
			rcfg = mk(sweepOrder[arm])
		}
		cells[i] = float64(readerCell(c, rcfg).TotalTransfers)
	})
	var sum [4]float64
	for pi, plan := range plans {
		transfers := cells[pi*arms : pi*arms+arms]
		for i := range sum {
			sum[i] += transfers[i]
		}
		t.Logf("%-8s seed=%d: fixed=%5.0f aloha=%5.0f ethernet=%5.0f res=%5.0f",
			plan.Name, plan.Seed, transfers[0], transfers[1], transfers[2], transfers[3])
		if !orderedWithSlack(transfers[2], transfers[1], transfers[0], 0.85) {
			t.Errorf("plan %s seed %d: ordering broken: fixed=%v aloha=%v ethernet=%v",
				plan.Name, plan.Seed, transfers[0], transfers[1], transfers[2])
		}
		if transfers[3] == 0 {
			t.Errorf("plan %s seed %d: reservation arm did no work", plan.Name, plan.Seed)
		}
	}
	if !(sum[2] > sum[1] && sum[1] > sum[0]) {
		t.Errorf("aggregate ordering broken: fixed=%v aloha=%v ethernet=%v", sum[0], sum[1], sum[2])
	}
	if sum[3] <= sum[0] {
		t.Errorf("aggregate reservation=%v not above fixed=%v", sum[3], sum[0])
	}
	if err := rec.Err(); err != nil {
		t.Errorf("invariants under chaos: %v", err)
	}
}

// TestChaosCellDeterminism re-runs one cell of each scenario under the
// same plan and seed and demands bit-identical results: fault schedules
// are drawn from the plan's own RNG, so they must never perturb (or be
// perturbed by) the client RNG.
func TestChaosCellDeterminism(t *testing.T) {
	plan := func() *chaos.Plan {
		p, err := chaos.Preset("mixed", 5)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	opt := Options{Scale: 0.1}
	window := opt.scaleD(SubmitWindow)
	s1 := submitCell(Options{}.cell("submit", 7, window, plan(), nil), 40, scaledArm(opt, core.Ethernet)).cl.Schedd
	s2 := submitCell(Options{}.cell("submit", 7, window, plan(), nil), 40, scaledArm(opt, core.Ethernet)).cl.Schedd
	if s1.Jobs != s2.Jobs || s1.Crashes != s2.Crashes {
		t.Errorf("condor cell diverged: (%d,%d) vs (%d,%d)", s1.Jobs, s1.Crashes, s2.Jobs, s2.Crashes)
	}

	bw := opt.scaleD(BufferWindow)
	b1, _ := bufferCell(Options{}.cell("buffer", 7, bw, plan(), nil), 25, core.Ethernet, fsbuffer.Config{}, 0)
	b2, _ := bufferCell(Options{}.cell("buffer", 7, bw, plan(), nil), 25, core.Ethernet, fsbuffer.Config{}, 0)
	if b1.Consumed != b2.Consumed || b1.Collisions != b2.Collisions || b1.Completed != b2.Completed {
		t.Errorf("buffer cell diverged: %+v vs %+v",
			[3]int64{b1.Consumed, b1.Collisions, b1.Completed},
			[3]int64{b2.Consumed, b2.Collisions, b2.Completed})
	}

	rw := opt.scaleD(ReaderWindow)
	rcfg := replica.DefaultReaderConfig(core.Ethernet)
	rcfg.OuterLimit = rw
	tl1 := readerCell(Options{}.cell("reader", 7, rw, plan(), nil), rcfg)
	tl2 := readerCell(Options{}.cell("reader", 7, rw, plan(), nil), rcfg)
	if tl1.TotalTransfers != tl2.TotalTransfers || tl1.TotalDeferrals != tl2.TotalDeferrals {
		t.Errorf("reader cell diverged: (%d,%d) vs (%d,%d)",
			tl1.TotalTransfers, tl1.TotalDeferrals, tl2.TotalTransfers, tl2.TotalDeferrals)
	}
	if !tl1.Transfers.Equal(tl2.Transfers) {
		t.Error("reader transfer series diverged between identical seeded runs")
	}
}

// TestChaosInvariantsCleanWithoutChaos guards the checker itself: a
// fault-free run of every scenario must pass the whole invariant suite,
// at paper scale ratios, for every discipline that carries one.
func TestChaosInvariantsCleanWithoutChaos(t *testing.T) {
	opt := Options{Scale: 0.1}
	rec := &chaos.Recorder{}
	for _, d := range core.Disciplines {
		submitCell(Options{}.cell("submit", 1, opt.scaleD(SubmitWindow), nil, rec), opt.scaleN(400), scaledArm(opt, d))
		bufferCell(Options{}.cell("buffer", 1, opt.scaleD(BufferWindow), nil, rec), 25, d, fsbuffer.Config{}, 0)
	}
	rcfg := replica.DefaultReaderConfig(core.Ethernet)
	rcfg.OuterLimit = opt.scaleD(ReaderWindow)
	readerCell(Options{}.cell("reader", 1, rcfg.OuterLimit, nil, rec), rcfg)
	// The fourth discipline's fault-free universes must be equally clean,
	// including the admission book's own no-starvation budget.
	runRes(Options{}, 1, opt.scaleN(400), opt.scaleD(SubmitWindow), nil, rec)
	bufferCell(Options{}.cell("buffer", 1, opt.scaleD(BufferWindow), nil, rec), 25, core.Reservation, fsbuffer.Config{}, 0)
	rcfgR := replica.DefaultReaderConfig(core.Reservation)
	rcfgR.OuterLimit = opt.scaleD(ReaderWindow)
	readerCell(Options{}.cell("reader", 1, rcfgR.OuterLimit, nil, rec), rcfgR)
	if err := rec.Err(); err != nil {
		t.Errorf("fault-free run violated invariants: %v", err)
	}
}

// TestFDTableSetCapacity covers the capacity squeeze seam directly:
// shrinking below in-use drives Free negative (carrier sense must see
// the overload), and restoring recovers exactly.
func TestFDTableSetCapacity(t *testing.T) {
	e := sim.New(1)
	fd := condor.NewCluster(e.RT(), condor.Config{FDCapacity: 100}).FDs
	if _, ok := fd.TryAcquire(nil, e.Context(), "a", 60); !ok {
		t.Fatal("acquire failed")
	}
	fd.SetCapacity(40)
	if got := fd.Sense().Free(); got != -20 {
		t.Errorf("Free after squeeze = %d, want -20", got)
	}
	fd.SetCapacity(100)
	if got := fd.Sense().Free(); got != 40 {
		t.Errorf("Free after restore = %d, want 40", got)
	}
	fd.SetCapacity(-5)
	if got := fd.Sense().Capacity; got != 0 {
		t.Errorf("Capacity clamped = %d, want 0", got)
	}
}
