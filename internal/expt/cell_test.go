package expt

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestCellLabelsUnique: the labels a sweep stamps on its cells are
// pairwise distinct at every scale, including the small ones where
// scaling collapses neighbouring sweep points onto one population
// (Figure 1's 10 and 25 are both one submitter at 0.05; the buffer
// sweep's 5 and 10 are both one producer at 0.1). Cells that share a
// label share a metric series.
func TestCellLabelsUnique(t *testing.T) {
	sweeps := []func(Options) sweep{fig1Sweep, bufferSweep, laSweep, resSweep, netSweep, scaleSweep}
	for _, scale := range []float64{1, 0.1, 0.05, 0.01} {
		opt := Options{Scale: scale, Parallel: 1}
		seen := map[string]bool{}
		for _, declare := range sweeps {
			declare(opt).run(opt, func(_, _ int, c cell) { // the cells, without running them
				if seen[c.label] {
					t.Errorf("scale %v: label %q stamped on two cells", scale, c.label)
				}
				seen[c.label] = true
			})
		}
	}
}

// TestSweepCellOrder pins what sweep.run stamps and in which order:
// figure/arm/population labels that stay as they are where nothing
// collides, position seeds, arm-major or population-major cells.
func TestSweepCellOrder(t *testing.T) {
	for _, byX := range []bool{false, true} {
		s := sweep{fig: "f", arms: []string{"a", "b"}, xs: []int{1, 1, 2}, byX: byX}
		var got []string
		s.run(Options{Seed: 10, Parallel: 1}, func(arm, p int, c cell) {
			got = append(got, fmt.Sprintf("%s@%d", c.label, c.seed))
			if c.label != s.label(arm, p) {
				t.Errorf("cell (%d,%d) labelled %q, want %q", arm, p, c.label, s.label(arm, p))
			}
		})
		want := "f/a/n1@10 f/a/n1.2@11 f/a/n2@12 f/b/n1@10 f/b/n1.2@11 f/b/n2@12"
		if byX {
			want = "f/a/n1@10 f/b/n1@10 f/a/n1.2@11 f/b/n1.2@11 f/a/n2@12 f/b/n2@12"
		}
		if strings.Join(got, " ") != want {
			t.Errorf("byX=%v: cells %v, want %s", byX, got, want)
		}
	}
}

// TestCellStepOrder pins the order of cell.run's steps, which is part
// of the determinism contract: hooks in the documented order, and
// between them the harness's own steps, each of which leaves a timer
// behind on the sim backend — the window's deadline before the
// daemons, the fault plan's schedule before the checks, the invariant
// sampler before the gauges, the flight-recorder sampler before the
// clients.
func TestCellStepOrder(t *testing.T) {
	plan, err := chaos.Preset("crashes", 1) // schedules its kills when armed
	if err != nil {
		t.Fatal(err)
	}
	c := Options{Obs: obs.New(), Trace: trace.New()}.cell("order", 1, time.Minute, plan, &chaos.Recorder{})
	var be core.Backend
	var steps []string
	var timers []int
	step := func(name string) {
		steps = append(steps, name)
		timers = append(timers, be.(engineObserver).TimerHeapLen())
	}
	var tallied int
	c.run(scenario{
		substrate: func(e core.Backend, fds newCarrier) chaos.Targets {
			be = e
			step("substrate")
			return chaos.Targets{Cluster: condor.NewClusterOn(e, condor.Config{}, fds)}
		},
		daemons: func(ctx context.Context) {
			if _, ok := ctx.Deadline(); !ok {
				t.Error("daemons were not handed the window's deadline")
			}
			step("daemons")
		},
		checks: func(inv *chaos.Invariants) {
			step("checks")
			inv.Horizon(2 * time.Minute) // violated: the window is one minute
		},
		tally:  func(chaos.Violation) { tallied++; step("tally") },
		gauges: func(*obs.Scope) { step("gauges") },
		clients: func(e core.Backend, ctx context.Context) {
			step("clients")
			e.Spawn("client", func(p core.Proc) { p.Hang(ctx) })
		},
	})
	if got, want := strings.Join(steps, " "), "substrate daemons checks gauges clients tally"; got != want {
		t.Fatalf("hooks ran as %q, want %q", got, want)
	}
	sub, dae, chk, gau, cli := timers[0], timers[1], timers[2], timers[3], timers[4]
	if sub != 0 || dae != 1 {
		t.Errorf("timers pending at substrate, daemons = %d, %d; want 0, 1 (the deadline is armed between them)", sub, dae)
	}
	if chk <= dae {
		t.Errorf("timers pending at checks = %d, at daemons %d: the fault plan was not armed between them", chk, dae)
	}
	if gau != chk+1 {
		t.Errorf("timers pending at gauges = %d, at checks %d: want one more, the invariant sampler", gau, chk)
	}
	if cli != gau+1 {
		t.Errorf("timers pending at clients = %d, at gauges %d: want one more, the flight-recorder sampler", cli, gau)
	}
	if tallied != 1 || len(c.rec.Violations) != 1 {
		t.Errorf("tallied %d violations, forwarded %d; want the one horizon violation in both", tallied, len(c.rec.Violations))
	}
}

// TestScenarioChecksRequired: checks is one of a scenario's required
// hooks, because cell.run calls it whenever there is a recorder to
// check into. A scenario that left it out would pass every run but one
// under -check; this pins that such a scenario cannot run checked.
func TestScenarioChecksRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a scenario without checks ran under a recorder")
		}
	}()
	Options{}.cell("nochecks", 1, time.Minute, nil, &chaos.Recorder{}).run(scenario{
		substrate: func(core.Backend, newCarrier) chaos.Targets { return chaos.Targets{} },
		clients:   func(core.Backend, context.Context) {},
	})
}
