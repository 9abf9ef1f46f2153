package expt

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestGriddNetFencedVsUnfenced is the fenced-vs-unfenced ablation of
// the channel-fault model, applied at the HTTP boundary instead of
// inside the scenario: the same duplicated requests and dropped replies
// cross the daemon's codec. Fencing must keep the daemon's ledger exact
// — zero phantom grants, zero double-frees, every replay landing stale
// — while the unfenced arm shows the corruption the epochs exist to
// prevent. The cell runs on the simulator, so seed 1 reads the same
// every run.
func TestGriddNetFencedVsUnfenced(t *testing.T) {
	fenced := GriddNetCell(1, false)
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

	unfenced := GriddNetCell(1, true)
	t.Logf("unfenced: %+v", unfenced)
	if unfenced.DoubleFrees == 0 {
		t.Error("unfenced cell never double-freed — the ablation proved nothing")
	}
}

// TestTripperPartitionHeals arms a chaos.Partition over both wire
// directions on a simulator engine whose daemon the tripper wraps: a
// probe inside the window is lost, and one after the window's close —
// the heal — reaches the daemon.
func TestTripperPartitionHeals(t *testing.T) {
	e := sim.New(1)
	srv := gridd.NewServerOn(e.RT(), gridd.Config{Resources: []gridd.ResourceConfig{{Name: "fds", Capacity: 2}}})
	const window = 50 * time.Millisecond
	plan := chaos.Plan{Name: "partition", Specs: []chaos.Spec{chaos.Partition{
		Window: chaos.Window{Duration: window},
		Sites:  []string{griddclient.InjectReq, griddclient.InjectRep},
	}}}
	c := inProcess(&griddclient.FaultTripper{Base: srv, Inj: plan.Arm(e.RT(), chaos.Targets{})})

	var during, after error
	e.Spawn("prober", func(p *sim.Proc) {
		_, during = c.Probe(context.Background(), "fds")
		p.SleepFor(window)
		_, after = c.Probe(context.Background(), "fds")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(during, core.ErrLost) {
		t.Fatalf("probe during partition = %v; want core.ErrLost", during)
	}
	if after != nil {
		t.Fatalf("probe after partition healed: %v", after)
	}
}

// tripCounter counts the round trips a client makes through it.
type tripCounter struct {
	base http.RoundTripper
	n    int
}

func (c *tripCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n++
	return c.base.RoundTrip(req)
}

// TestGriddRoundTripsPinned pins what the two periodic readers of the
// FD table cost on the gridd backend, in round trips to the daemon.
// One sample of obsCluster's gauges makes 4: occupancy probes Capacity
// and InUse, then the in-use and free gauges probe once each. One
// schedd housekeeping tick makes 1: it senses the table with a probe.
func TestGriddRoundTripsPinned(t *testing.T) {
	e := sim.New(1)
	trips := &tripCounter{base: gridd.NewServerOn(e.RT(), gridd.Config{})}
	client := inProcess(trips)
	cl := condor.NewClusterOn(e.RT(), condor.Config{}, func(capacity int64, quantum time.Duration) lease.Carrier {
		car, err := griddclient.NewCarrier(e.RT(), client, "fds", capacity, quantum)
		if err != nil {
			t.Fatal(err)
		}
		return car
	})
	sc := obs.New().NewScope(e.RT().Elapsed)
	obsCluster(sc, cl)
	trips.n = 0
	sc.Sample()
	if trips.n != 4 {
		t.Errorf("one obsCluster sample: %d round trips, want 4", trips.n)
	}

	ctx, cancel := e.WithTimeout(e.Context(), cl.Cfg.HousekeepInterval+time.Second) // one tick
	defer cancel()
	cl.StartHousekeeping(ctx)
	trips.n = 0
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if trips.n != 1 {
		t.Errorf("one housekeeping tick: %d round trips, want 1", trips.n)
	}
	if cl.Schedd.Crashes != 0 {
		t.Errorf("housekeeping on an idle table crashed the schedd %d times", cl.Schedd.Crashes)
	}
}
