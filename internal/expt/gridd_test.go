package expt

import (
	"context"
	"errors"
	"fmt"
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
	fenced := griddNetCell(1, false)
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

	unfenced := griddNetCell(1, true)
	t.Logf("unfenced: %+v", unfenced)
	if unfenced.DoubleFrees == 0 {
		t.Error("unfenced cell never double-freed — the ablation proved nothing")
	}
}

// griddNetCell runs concurrent clients against a daemon-hosted
// resource through a fault-injecting RoundTripper that duplicates
// requests and drops replies — the channel-fault model applied at the
// HTTP boundary instead of inside the scenario, armed as an ordinary
// chaos.Plan at griddclient's InjectReq/InjectRep sites. With fencing
// on, a duplicated release's replay lands stale and the ledger stays
// exact; unfenced, replays double-free and admit phantom grants. The
// daemon runs on a simulator engine, its codec wrapped by the tripper,
// and the clients are the engine's processes: the claim under test is
// wire-protocol integrity, not parking, so they acquire without waiting
// and try again shortly when refused. It returns the daemon's final
// accounting, after the engine ran dry, when every orphaned grant's
// watchdog had fired.
func griddNetCell(seed int64, unfenced bool) gridd.StatsReply {
	const name = "lanes"
	e := sim.New(seed)
	srv := gridd.NewServerOn(e.RT(), gridd.Config{Resources: []gridd.ResourceConfig{{
		Name: name, Capacity: 4, Quantum: 60 * time.Millisecond, Unfenced: unfenced,
	}}})
	faults := chaos.Window{Duration: time.Minute}
	plan := chaos.Plan{Name: "gridd-net", Seed: seed, Specs: []chaos.Spec{
		chaos.MsgDup{Window: faults, Site: griddclient.InjectReq, Prob: 0.5},
		chaos.MsgDrop{Window: faults, Site: griddclient.InjectRep, Prob: 0.15},
	}}
	c := inProcess(&griddclient.FaultTripper{Base: srv, Inj: plan.Arm(e.RT(), chaos.Targets{})})

	const clients, opsPer = 6, 12
	for i := 0; i < clients; i++ {
		holder := fmt.Sprintf("c%d", i)
		e.Spawn(holder, func(p *sim.Proc) {
			for j := 0; j < opsPer; j++ {
				lease, err := c.Acquire(context.Background(), gridd.AcquireRequest{Resource: name, Holder: holder, Units: 1})
				if err != nil {
					p.SleepFor(10 * time.Millisecond)
					continue
				}
				p.SleepFor(time.Duration(1+j%3) * time.Millisecond)
				// The release itself crosses the lossy channel: this is
				// where duplication double-frees an unfenced ledger.
				_ = lease.Release(context.Background())
				p.SleepFor(time.Millisecond)
			}
		})
	}
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	st, _ := srv.Stats(name) // fails only for a resource it does not host
	return *st
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

// TestGriddRoundTripsPinned pins what the three periodic readers of the
// FD table cost on the gridd backend, in round trips to the daemon.
// Each makes 1, a probe: one sample of obsCluster's gauges (the
// occupancy gauge senses, the in-use and free gauges read its sense),
// one schedd housekeeping tick, and one tick of an Ethernet arm's
// invariants (the carrier floor senses once).
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
	if trips.n != 1 {
		t.Errorf("one obsCluster sample: %d round trips, want 1", trips.n)
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

	inv := chaos.NewInvariants(e.RT(), nil)
	condorChecks(inv, cl, condor.DefaultSubmitterConfig(core.Ethernet), time.Hour)
	ctx, cancel = e.WithTimeout(e.Context(), 3*time.Second/2) // one tick, at 1s
	defer cancel()
	inv.Start(ctx)
	trips.n = 0
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if trips.n != 1 {
		t.Errorf("one invariant tick: %d round trips, want 1", trips.n)
	}
}
