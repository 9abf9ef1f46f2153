package griddclient_test

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/sim"
)

// TestWireCycleAllocs pins what one Ethernet job costs in allocations
// on the in-process wire the gridd figures run on: a client whose
// transport is a NewServerOn daemon's RoundTrip, so both codecs, the
// request and reply plumbing and the handler are counted, and no
// socket. The counts are exact budgets at today's values: a change to
// the codec that spends or saves shows here as a count, not a timing.
func TestWireCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const cycleBudget, probeBudget = 102, 26
	e := sim.New(1)
	srv := gridd.NewServerOn(e.RT(), gridd.Config{Resources: []gridd.ResourceConfig{{
		Name: "fds", Capacity: 1, Quantum: 30 * time.Second,
	}}})
	c := griddclient.New("http://gridd", 1)
	c.HTTP = &http.Client{Transport: srv}
	ctx := context.Background()
	probe := func() {
		if _, err := c.Probe(ctx, "fds"); err != nil {
			t.Fatal(err)
		}
	}
	cycle := testing.AllocsPerRun(100, func() {
		probe()
		l, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "h", Units: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Release(ctx); err != nil {
			t.Fatal(err)
		}
	})
	alone := testing.AllocsPerRun(100, probe)
	t.Logf("%v allocations per probe, acquire and release; %v per probe", cycle, alone)
	if cycle != cycleBudget || alone != probeBudget {
		t.Fatalf("%v allocations per probe, acquire and release, %v per probe; budgets %d and %d",
			cycle, alone, cycleBudget, probeBudget)
	}
}
