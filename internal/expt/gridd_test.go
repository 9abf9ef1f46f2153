package expt

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/live"
)

// TestGriddNetFencedVsUnfenced is the fenced-vs-unfenced ablation of
// the channel-fault model, applied at the real HTTP boundary instead
// of inside the simulator: the same duplicated requests and dropped
// replies cross an actual socket. Fencing must keep the daemon's
// ledger exact — zero phantom grants, zero double-frees, every replay
// landing stale — while the unfenced arm shows the corruption the
// epochs exist to prevent.
func TestGriddNetFencedVsUnfenced(t *testing.T) {
	opt := Options{Backend: BackendGridd}

	fenced, err := GriddNetCell(opt, 1, false)
	if err != nil {
		t.Fatalf("fenced cell: %v", err)
	}
	t.Logf("fenced: %+v", fenced)
	if fenced.Phantoms != 0 {
		t.Errorf("fenced phantoms = %d, want 0", fenced.Phantoms)
	}
	if fenced.DoubleFrees != 0 {
		t.Errorf("fenced double-frees = %d, want 0", fenced.DoubleFrees)
	}
	if fenced.Stales == 0 {
		t.Error("fenced cell saw no stale verdicts — the lossy channel never replayed anything?")
	}
	if fenced.Outstanding != 0 {
		t.Errorf("fenced outstanding = %d after quiescence, want 0", fenced.Outstanding)
	}

	unfenced, err := GriddNetCell(opt, 1, true)
	if err != nil {
		t.Fatalf("unfenced cell: %v", err)
	}
	t.Logf("unfenced: %+v", unfenced)
	if unfenced.DoubleFrees == 0 {
		t.Error("unfenced cell never double-freed — the ablation proved nothing")
	}
}

// TestGriddConformance runs the wire-protocol checklist against a
// fresh in-process daemon — the same checklist gridbench -fig gridd
// pins with a golden file.
func TestGriddConformance(t *testing.T) {
	url, stop, err := SpawnGridd()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var buf bytes.Buffer
	if err := GriddConformance(url, &buf); err != nil {
		t.Fatalf("conformance: %v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	got := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ok ") {
			got++
		}
	}
	if got != 7 {
		t.Fatalf("conformance emitted %d ok lines, want 7:\n%s", got, out)
	}
}

// TestTripperPartitionHeals arms a chaos.Partition over both wire
// directions on a live engine at timescale 1: a probe inside the
// window is lost, and one after the window's close — the heal —
// reaches the daemon.
func TestTripperPartitionHeals(t *testing.T) {
	url, stop, err := SpawnGridd()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if err := griddclient.New(url, 1).CreateResource(context.Background(), gridd.CreateRequest{Name: "fds", Capacity: 2}); err != nil {
		t.Fatal(err)
	}
	const window = 50 * time.Millisecond
	eng := live.New(1, 1)
	plan := chaos.Plan{Name: "partition", Specs: []chaos.Spec{chaos.Partition{
		Window: chaos.Window{Duration: window},
		Sites:  []string{griddclient.InjectReq, griddclient.InjectRep},
	}}}
	c := griddclient.New(url, 1)
	c.HTTP = &http.Client{Transport: &griddclient.FaultTripper{Inj: plan.Arm(eng, chaos.Targets{})}}

	var during, after error
	var duringAt time.Duration
	eng.Spawn("prober", func(p core.Proc) {
		duringAt = p.Elapsed()
		eng.Blocking(func() { _, during = c.Probe(context.Background(), "fds") })
		p.SleepFor(window + 10*time.Millisecond)
		eng.Blocking(func() { _, after = c.Probe(context.Background(), "fds") })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if duringAt >= window {
		t.Fatalf("first probe started at %v, after the %v partition", duringAt, window)
	}
	if !errors.Is(during, core.ErrLost) {
		t.Fatalf("probe during partition = %v; want core.ErrLost", during)
	}
	if after != nil {
		t.Fatalf("probe after partition healed: %v", after)
	}
}
