package expt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/ftsh/interp"
	"repro/internal/ftsh/parser"
	"repro/internal/proc"
	"repro/internal/sim"
)

// These tests run scenario one with clients that are *actual ftsh
// scripts* — the paper's own artifacts — executed by the interpreter in
// virtual time, and check that they reproduce the same dynamics as the
// core-API clients used by the figure generators. This is the
// end-to-end integration proof: language → interpreter → discipline →
// substrate.

// Both scripts begin with `sleep ${start}`: clients of a real pool do
// not all boot within the same few milliseconds, and without the
// stagger the t=0 herd passes carrier sense en masse before anyone has
// finished acquiring (every client sees near-full free FDs).
const alohaSubmitScript = `
sleep ${start}
while true
  try for 5 minutes
    condor_submit submit.job
  end
end
`

// The §5 Ethernet submitter, verbatim shape.
const ethernetSubmitScript = `
sleep ${start}
while true
  try for 5 minutes
    cut -f2 /proc/sys/fs/file-nr -> n
    if ${n} .lt. %d
      failure
    else
      condor_submit submit.job
    end
  end
end
`

// runScriptedSubmitters drives n interpreter clients of the given
// script against a small cluster for the window.
func runScriptedSubmitters(t *testing.T, seed int64, script string, n int, window time.Duration) *condor.Cluster {
	t.Helper()
	parsed, err := parser.Parse(script)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e := sim.New(seed)
	cl := condor.NewCluster(e.RT(), condor.Config{FDCapacity: 2048})
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	cl.StartHousekeeping(ctx)

	runner := proc.NewMapRunner()
	condor.Install(runner, cl)
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("client", func(p *sim.Proc) {
			in := interp.New(interp.Config{Runner: runner, Runtime: p})
			// Spread client start times over 10 s.
			in.SetVar("start", fmt.Sprintf("%.3f", 10*float64(i)/float64(n)))
			_ = in.Run(ctx, parsed)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestScriptedEthernetAvoidsCrashes(t *testing.T) {
	n := 130 // demand ≈ 130×20.5 ≈ 2665 > 2048: genuine contention
	window := 10 * time.Minute
	// Threshold 400: wide enough that the carrier-sense race (several
	// clients passing the sense during one setup window) cannot starve
	// the schedd's 50-FD housekeeping.
	eth := runScriptedSubmitters(t, 1, fmt.Sprintf(ethernetSubmitScript, 400), n, window)
	aloha := runScriptedSubmitters(t, 1, alohaSubmitScript, n, window)

	if eth.Schedd.Crashes != 0 {
		t.Errorf("scripted Ethernet crashes = %d, want 0", eth.Schedd.Crashes)
	}
	if aloha.Schedd.Crashes == 0 {
		t.Error("scripted Aloha never crashed the schedd under overload")
	}
	if eth.Schedd.Jobs <= aloha.Schedd.Jobs {
		t.Errorf("scripted Ethernet jobs %d not above Aloha %d", eth.Schedd.Jobs, aloha.Schedd.Jobs)
	}
	if eth.FDs.Sense().InUse != 0 || aloha.FDs.Sense().InUse != 0 {
		t.Errorf("FD leaks: eth=%d aloha=%d", eth.FDs.Sense().InUse, aloha.FDs.Sense().InUse)
	}
}

func TestScriptedMatchesCoreClients(t *testing.T) {
	// The same scenario driven by ftsh scripts and by core.Client must
	// land in the same throughput regime (they share the discipline
	// logic, but the script path adds the parser/interpreter and the
	// carrier sense via `cut`/`if` instead of the Sense hook).
	n := 130
	window := 10 * time.Minute
	scripted := runScriptedSubmitters(t, 1, fmt.Sprintf(ethernetSubmitScript, 250), n, window)

	cfg := condor.DefaultSubmitterConfig(core.Ethernet)
	cfg.Threshold = 250
	schedd := submitCell(Options{}.cell("submit", 1, window, nil, nil), n, submitArm{sub: cfg, cluster: condor.Config{FDCapacity: 2048}}).cl.Schedd
	coreJobs, coreCrashes := schedd.Jobs, schedd.Crashes

	// The 250-FD margin is deliberately thin; the occasional crash is
	// seed luck, not a divergence between the two client stacks.
	if coreCrashes > 2 {
		t.Fatalf("core crashes = %d, want at most the occasional one", coreCrashes)
	}
	sj, cj := float64(scripted.Schedd.Jobs), float64(coreJobs)
	if sj < 0.7*cj || sj > 1.3*cj {
		t.Errorf("scripted jobs %v vs core jobs %v: beyond ±30%%", sj, cj)
	}
}

func TestScriptedClientsAreKillableAtWindowEnd(t *testing.T) {
	// The window context must unwind every interpreter cleanly so the
	// engine quiesces — the script equivalent of ftsh session kill.
	cl := runScriptedSubmitters(t, 2, alohaSubmitScript, 20, time.Minute)
	if cl.Schedd.Jobs == 0 {
		t.Fatal("no jobs submitted")
	}
}
