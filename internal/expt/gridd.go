package expt

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/sim"
)

// ---------------------------------------------------------------------
// The gridd backend: the paper's scenarios with the FD table on a daemon
// ---------------------------------------------------------------------
//
// BackendGridd runs the same submit and lease scenarios as sim and
// live, the same code, but the FD table they contend for lives in a
// gridd daemon (internal/gridd, cmd/gridd): carrier sense is a GET,
// acquisition a POST granting a fenced lease, and the watchdog that
// revokes wedged holders is the daemon's. The table is a
// griddclient.Carrier (cell.carrier).
//
// By default each cell runs on the simulator with its own daemon on the
// cell's engine, and the client's transport is the daemon's codec
// (gridd.Server.RoundTrip): every operation crosses both JSON codecs,
// in process, on virtual time, so a gridd cell replays from its seed
// and equals the sim cell of the same seed. With Options.GriddURL the
// cell runs on a live engine at GriddTimescale and the table sits on
// that daemon, across a real socket.
//
// The differential harness (diff_test.go) holds these cells to the
// sim cells' exact results.

// BackendGridd names the networked backend: the scenarios with their
// FD table on a gridd daemon.
const BackendGridd = "gridd"

// Backends lists every registered backend name, in presentation
// order. cmd/gridbench validates -backend against this list, so a new
// backend registered here is automatically accepted (and advertised)
// by the CLI.
func Backends() []string {
	return []string{BackendSim, BackendLive, BackendGridd}
}

// KnownBackend reports whether name is a registered backend. The
// empty string is the default (sim).
func KnownBackend(name string) bool {
	if name == "" {
		return true
	}
	for _, b := range Backends() {
		if b == name {
			return true
		}
	}
	return false
}

// GriddTimescale is the default compression for gridd cells against a
// daemon at Options.GriddURL: 1 virtual second per 40 real
// milliseconds. Far gentler than the in-process live default, because
// every load-bearing virtual duration must map to real time comfortably
// above the Go timer floor PLUS an HTTP round-trip on the socket (see
// EXPERIMENTS.md, "Choosing a timescale for real sockets").
const GriddTimescale = 25.0

func (o Options) griddTimescale() float64 {
	if o.Timescale > 0 {
		return o.Timescale
	}
	return GriddTimescale
}

// inProcess returns a client whose round trips tr serves on the
// caller's goroutine: a gridd.Server's codec, or a tripper around one.
// Its durations are the daemon's own, so it needs no timescale.
func inProcess(tr http.RoundTripper) *griddclient.Client {
	c := griddclient.New("http://gridd", 1)
	c.HTTP = &http.Client{Transport: tr}
	return c
}

// ---------------------------------------------------------------------
// Wire chaos: the fenced-vs-unfenced ablation over a lossy codec
// ---------------------------------------------------------------------

// GriddNetCell runs concurrent clients against a daemon-hosted
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
func GriddNetCell(seed int64, unfenced bool) gridd.StatsReply {
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
