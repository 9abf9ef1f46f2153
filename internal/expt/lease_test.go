package expt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
)

// laResult is what the la tests read of one cell.
type laResult struct {
	Jobs, Crashes, Revokes int64
	PerClient              []float64
	Jain                   float64
	// Starved counts no-starvation violations; MaxWait is the longest
	// any client went wanting FDs.
	Starved int
	MaxWait time.Duration
}

// runLA runs one la cell outside the sweep: leaseSubmit's n submitters
// for the window, on a table of the given tenure quantum.
func runLA(opt Options, seed int64, n int, window, quantum time.Duration, plan *chaos.Plan, rec *chaos.Recorder) laResult {
	r := submitCell(opt.cell(fmt.Sprintf("la/%s/n%d", leaseArm(quantum), n), seed, window, plan, rec), n, leaseSubmit(window, n, quantum))
	return laResult{
		Jobs: r.cl.Schedd.Jobs, Crashes: r.cl.Schedd.Crashes, Revokes: r.cl.FDs.Revocations(),
		PerClient: r.perClient(), Jain: r.jain(),
		Starved: r.violations["no-starvation"], MaxWait: r.cl.FDs.MaxStarvation(),
	}
}

// The acceptance criterion of the limited-allocation subsystem: under
// the stuck-holder fault plan, a leased Ethernet population satisfies
// the no-starvation invariant with high fairness, while the identical
// population under legacy unlimited allocation violates it. Parameters
// mirror one FigLA cell at test scale.
func TestLeaseNoStarvationUnderStuckHolder(t *testing.T) {
	const (
		n      = 20
		window = 120 * time.Second
	)
	quantum := leaseQuantum(window)
	var leasedJobs, unleasedJobs int64
	for _, seed := range []int64{1, 2, 3} {
		plan, err := chaos.Preset("stuck-holder", seed)
		if err != nil {
			t.Fatal(err)
		}
		rec := &chaos.Recorder{}
		leased := runLA(Options{}, seed, n, window, quantum, plan, rec)
		if !rec.Ok() {
			t.Errorf("seed %d: leased cell violated invariants: %v", seed, rec.Err())
		}
		if leased.Jain < 0.9 {
			t.Errorf("seed %d: leased Jain = %.3f, want >= 0.9", seed, leased.Jain)
		}
		if leased.Revokes == 0 {
			t.Errorf("seed %d: watchdog never fired under stuck-holder chaos", seed)
		}

		unleased := runLA(Options{}, seed, n, window, 0, plan, nil)
		if unleased.Starved == 0 {
			t.Errorf("seed %d: unleased ablation never starved (maxwait %v, budget %v)",
				seed, unleased.MaxWait, leaseBudget(window))
		}
		if unleased.Revokes != 0 {
			t.Errorf("seed %d: unleased cell revoked %d tenures", seed, unleased.Revokes)
		}
		if unleased.MaxWait <= leased.MaxWait {
			t.Errorf("seed %d: unleased max wait %v not worse than leased %v",
				seed, unleased.MaxWait, leased.MaxWait)
		}
		leasedJobs += leased.Jobs
		unleasedJobs += unleased.Jobs
	}
	// Reclaiming wedged holders must also pay in aggregate throughput.
	if leasedJobs <= unleasedJobs {
		t.Errorf("aggregate jobs: leased=%d <= unleased=%d", leasedJobs, unleasedJobs)
	}
}

// Identical seeds must yield identical cells: the watchdog timers and
// hang draws ride the same deterministic engine as everything else.
func TestLeaseCellDeterminism(t *testing.T) {
	plan := func() *chaos.Plan {
		p, err := chaos.Preset("stuck-holder", 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	window := 120 * time.Second
	a := runLA(Options{}, 7, 20, window, leaseQuantum(window), plan(), nil)
	b := runLA(Options{}, 7, 20, window, leaseQuantum(window), plan(), nil)
	if a.Jobs != b.Jobs || a.Jain != b.Jain || a.Revokes != b.Revokes || a.MaxWait != b.MaxWait {
		t.Errorf("cells diverged: (%d %.4f %d %v) vs (%d %.4f %d %v)",
			a.Jobs, a.Jain, a.Revokes, a.MaxWait, b.Jobs, b.Jain, b.Revokes, b.MaxWait)
	}
	for i := range a.PerClient {
		if a.PerClient[i] != b.PerClient[i] {
			t.Fatalf("client %d diverged: %v vs %v", i, a.PerClient[i], b.PerClient[i])
		}
	}
}

// FigLA at smoke scale: both tables fully populated, leased cells
// clean, and the recorded violations (if any) all from the ablation.
func TestFigLASmallScale(t *testing.T) {
	rec := &chaos.Recorder{}
	la := FigLA(Options{Scale: 0.1, Check: rec})
	if err := rec.Err(); err != nil {
		t.Errorf("leased cells violated invariants: %v", err)
	}
	if got := len(la.Throughput.Cols); got != 2 {
		t.Fatalf("throughput cols = %d", got)
	}
	if got := len(la.Fairness.Cols); got != 5 {
		t.Fatalf("fairness cols = %d", got)
	}
	for _, c := range la.Throughput.Cols {
		if len(c.Vals) != len(la.Throughput.Xs) {
			t.Errorf("col %s has %d vals for %d xs", c.Name, len(c.Vals), len(la.Throughput.Xs))
		}
	}
	// Column 0 is jain-leased (×100): the leased population must stay
	// fair at every swept size.
	for i, v := range la.Fairness.Cols[0].Vals {
		if v < 90 {
			t.Errorf("jain-leased at n=%d is %.1f, want >= 90", la.Fairness.Xs[i], v)
		}
	}
}
