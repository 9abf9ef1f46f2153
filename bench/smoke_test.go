package main

import "testing"

// toy shrinks every fixed count so that all seven workloads, untraced
// and traced, run end to end in a few seconds, and puts the counts
// back afterwards.
func toy(t *testing.T) {
	saved := []*int{&warmJobs, &griddReps, &stageIters, &stageParkIters,
		&stageTimersN, &stageProcN, &simSetups, &ftshSetups, &ftshLoops}
	values := make([]int, len(saved))
	for i, p := range saved {
		values[i] = *p
	}
	savedScale, savedBundle := scaleInv, bundle
	t.Cleanup(func() {
		for i, p := range saved {
			*p = values[i]
		}
		scaleInv, bundle = savedScale, savedBundle
	})
	warmJobs, griddReps = 10, 1
	stageIters, stageParkIters = 40, 5
	stageTimersN, stageProcN = 2000, 640
	simSetups, ftshSetups, ftshLoops = 1, 1, 2
	// The toy figures are not the ones with checked-in outputs: unpinned,
	// on a seed other than 1, they are checked against their own rerun.
	scaleInv = invocation{name: "scale", args: []string{"-fig", "scale", "-scale", "0.01"}}
	bundle = []invocation{
		{name: "fig3", layer: "condor.fig23_s", args: []string{"-fig", "3", "-scale", "0.01"}},
		{name: "fig7", layer: "replica.fig67_s", args: []string{"-fig", "7", "-scale", "0.01"}},
	}
}

// TestSmoke drives every workload at toy size through the real
// binaries, untraced and traced, with every check armed: the daemon's
// ledger, the FIFO proof, the scripted typed errors, gridbench's output
// and the ftsh transcripts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/gridd and cmd/gridbench")
	}
	toy(t)
	e, err := prepare(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o, err := w.run(e, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				for _, p := range o.problems {
					t.Errorf("traced=%v: failed check: %s", traced, p)
				}
				if o.failed != 0 || o.attempted < 1 {
					t.Errorf("traced=%v: %d of %d operations failed", traced, o.failed, o.attempted)
				}
				if traced {
					if len(o.values) == 0 {
						t.Error("traced run measured no layer")
					}
					for name := range o.values {
						if !declaredIn(perLayer, name) {
							t.Errorf("traced run set undeclared metric %s", name)
						}
					}
					continue
				}
				for _, d := range endToEnd {
					if v, ok := o.values[d.name]; !ok || v <= 0 {
						t.Errorf("%s = %v, want a positive measurement", d.name, v)
					}
				}
			}
		})
	}
}

func declaredIn(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
