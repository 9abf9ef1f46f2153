package griddclient_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/lease"
	"repro/internal/live"
	"repro/internal/sim"
)

// The carrier contract: what condor's FD table relies on, whatever
// carrier it is. One table, run on a lease.Manager on the
// simulator, on a Carrier against a daemon on the holder's simulator
// engine, reached through the daemon's codec in process, and on a
// Carrier against a daemon across a real socket.

const (
	contractCap     = 4
	contractQuantum = 200 * time.Millisecond
)

// levers are what a case may do to the carrier besides calling it.
type levers struct {
	// reclaim ends a tenure from the carrier's side, as its host's own
	// reasons would.
	reclaim func(lease.Lease)
	// lag makes the carrier's next answer reach the holder d late. A
	// carrier in process answers at once, and lag does nothing.
	lag func(d time.Duration)
}

// carrierRun runs body as one holder process next to a fresh carrier of
// contractCap units and contractQuantum tenure.
type carrierRun func(t *testing.T, body func(p core.Proc, car lease.Carrier, x levers))

func onSim(t *testing.T, body func(p core.Proc, car lease.Carrier, x levers)) {
	e := sim.New(1)
	m := lease.New(e.RT(), "fds", contractCap, contractQuantum)
	e.Spawn("holder", func(p *sim.Proc) { body(p, m, levers{lease.Lease.Revoke, func(time.Duration) {}}) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// laggyHost is a live engine whose next round trip returns lag late.
// Only the holder makes round trips, on its own goroutine.
type laggyHost struct {
	*live.Engine
	lag time.Duration
}

func (h *laggyHost) Blocking(fn func()) {
	h.Engine.Blocking(func() {
		fn()
		time.Sleep(h.lag)
		h.lag = 0
	})
}

func onDaemon(t *testing.T, body func(p core.Proc, car lease.Carrier, x levers)) {
	srv := gridd.NewServer(gridd.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	e := live.New(1, 1)
	h := &laggyHost{Engine: e}
	car, err := griddclient.NewCarrier(h, griddclient.New(hs.URL, 1), "fds", contractCap, contractQuantum)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("holder", func(p core.Proc) {
		body(p, car, levers{
			reclaim: func(lease.Lease) {
				// A drain with no budget revokes every grant at once.
				done, cancel := context.WithCancel(context.Background())
				cancel()
				e.Blocking(func() { srv.Shutdown(done) })
			},
			lag: func(d time.Duration) { h.lag = d },
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// simHost is the holder's simulator engine as a Carrier's host: a
// round trip is a call, and lag parks the one holder for d after its
// next one.
type simHost struct {
	sim.RT
	holder *sim.Proc
	lag    time.Duration
}

func (h *simHost) Blocking(fn func()) {
	fn()
	if d := h.lag; d > 0 {
		h.lag = 0
		h.holder.SleepFor(d)
	}
}

func onSimDaemon(t *testing.T, body func(p core.Proc, car lease.Carrier, x levers)) {
	e := sim.New(1)
	srv := gridd.NewServerOn(e.RT(), gridd.Config{})
	c := griddclient.New("http://gridd", 1)
	c.HTTP = &http.Client{Transport: srv}
	h := &simHost{RT: e.RT()}
	car, err := griddclient.NewCarrier(h, c, "fds", contractCap, contractQuantum)
	if err != nil {
		t.Fatal(err)
	}
	h.holder = e.Spawn("holder", func(p *sim.Proc) {
		body(p, car, levers{
			reclaim: func(lease.Lease) {
				// A drain with no budget revokes every grant at once.
				done, cancel := context.WithCancel(context.Background())
				cancel()
				srv.Shutdown(done)
			},
			lag: func(d time.Duration) { h.lag = d },
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCarrierContract(t *testing.T) {
	cases := []struct {
		name string
		body func(t *testing.T, p core.Proc, car lease.Carrier, x levers)
	}{
		{"an immediate refusal never queues", func(t *testing.T, p core.Proc, car lease.Carrier, _ levers) {
			l, ok := car.TryAcquire(p, context.Background(), "a", contractCap)
			if !ok {
				t.Error("acquire of every free unit refused")
				return
			}
			if _, ok := car.TryAcquire(p, context.Background(), "b", 1); ok {
				t.Error("acquire over capacity granted")
				return
			}
			if s := car.Sense(); s.Free() != 0 || s.InUse != contractCap {
				t.Errorf("refused acquire moved the books: Free %d, InUse %d", s.Free(), s.InUse)
				return
			}
			l.Release()
			if _, ok := car.TryAcquire(p, context.Background(), "b", 1); !ok {
				t.Error("acquire after the release refused")
			}
		}},
		{"a duplicate release neither double-frees nor moves Free", func(t *testing.T, p core.Proc, car lease.Carrier, _ levers) {
			l, ok := car.TryAcquire(p, context.Background(), "a", 2)
			if !ok {
				t.Error("acquire refused")
				return
			}
			if _, ok := car.TryAcquire(p, context.Background(), "b", 1); !ok {
				t.Error("second acquire refused")
				return
			}
			if f := car.Sense().Free(); f != contractCap-3 {
				t.Errorf("Free with 3 held = %d", f)
				return
			}
			l.Release()
			l.Release()
			if s := car.Sense(); s.Free() != contractCap-1 || s.InUse != 1 {
				t.Errorf("after a release and its duplicate: Free %d, InUse %d; want %d, 1", s.Free(), s.InUse, contractCap-1)
				return
			}
			if l.Revoked() {
				t.Error("a released lease reads revoked")
			}
		}},
		{"Renew extends the tenure", func(t *testing.T, p core.Proc, car lease.Carrier, _ levers) {
			l, ok := car.TryAcquire(p, context.Background(), "a", 1)
			if !ok {
				t.Error("acquire refused")
				return
			}
			p.SleepFor(contractQuantum * 6 / 10)
			if !l.Renew() {
				t.Error("renew of a live lease failed")
				return
			}
			p.SleepFor(contractQuantum * 6 / 10) // past the first deadline
			if l.Ctx().Err() != nil || l.Revoked() {
				t.Error("renewed lease ended at its first deadline")
				return
			}
			l.Release()
		}},
		{"a renewal overtaken by the deadline leaves no units held", func(t *testing.T, p core.Proc, car lease.Carrier, x levers) {
			l, ok := car.TryAcquire(p, context.Background(), "a", 1)
			if !ok {
				t.Error("acquire refused")
				return
			}
			p.SleepFor(contractQuantum * 3 / 4)
			// The carrier renews before the deadline; its answer arrives
			// after it, and a quantum before the renewed one.
			x.lag(contractQuantum / 2)
			if l.Renew() {
				if u := car.Sense().InUse; u != 1 {
					t.Errorf("renewed lease: in use %d, want 1", u)
				}
				l.Release()
				return
			}
			if l.Ctx().Err() == nil || !l.Revoked() {
				t.Errorf("renew reported the tenure ended: ctx %v, revoked %v; want done, true", l.Ctx().Err(), l.Revoked())
			}
			if u := car.Sense().InUse; u != 0 {
				t.Errorf("renew reported the tenure ended with %d units still held", u)
			}
		}},
		{"an expired tenure ends Ctx and reads Revoked", func(t *testing.T, p core.Proc, car lease.Carrier, _ levers) {
			l, ok := car.TryAcquire(p, context.Background(), "a", 1)
			if !ok {
				t.Error("acquire refused")
				return
			}
			wedge, cancel := p.WithTimeout(l.Ctx(), 5*contractQuantum)
			_ = p.Hang(wedge)
			cancel()
			if l.Ctx().Err() == nil || !l.Revoked() {
				t.Errorf("after the quantum: ctx %v, revoked %v; want done, true", l.Ctx().Err(), l.Revoked())
				return
			}
			if l.Renew() {
				t.Error("renew of a revoked lease succeeded")
				return
			}
			for i := 0; car.Sense().Free() != contractCap; i++ {
				if i == 100 {
					t.Errorf("revoked unit never came back: Free %d", car.Sense().Free())
					return
				}
				p.SleepFor(contractQuantum / 20)
			}
		}},
		{"a stale tenure ends Ctx and reads Revoked", func(t *testing.T, p core.Proc, car lease.Carrier, x levers) {
			l, ok := car.TryAcquire(p, context.Background(), "a", 1)
			if !ok {
				t.Error("acquire refused")
				return
			}
			x.reclaim(l)
			if l.Renew() {
				t.Error("renew of a reclaimed lease succeeded")
				return
			}
			if l.Ctx().Err() == nil || !l.Revoked() {
				t.Errorf("after a stale renew: ctx %v, revoked %v; want done, true", l.Ctx().Err(), l.Revoked())
				return
			}
			l.Release()
		}},
		{"Free, InUse and Capacity follow a squeeze", func(t *testing.T, p core.Proc, car lease.Carrier, _ levers) {
			if _, ok := car.TryAcquire(p, context.Background(), "a", 3); !ok {
				t.Error("acquire refused")
				return
			}
			car.SetCapacity(2)
			// A daemon's probe reply clamps its free units at 0; the
			// sense is capacity less units in use, as on a manager.
			if s := car.Sense(); s.Capacity != 2 || s.InUse != 3 || s.Free() != -1 {
				t.Errorf("squeezed: capacity %d, in use %d, free %d; want 2, 3, -1", s.Capacity, s.InUse, s.Free())
				return
			}
			if _, ok := car.TryAcquire(p, context.Background(), "b", 1); ok {
				t.Error("acquire into a squeezed table granted")
				return
			}
			car.SetCapacity(contractCap)
			if f := car.Sense().Free(); f != 1 {
				t.Errorf("restored: free %d, want 1", f)
			}
		}},
	}
	for _, env := range []struct {
		name string
		run  carrierRun
	}{{"manager-on-sim", onSim}, {"gridd-on-sim", onSimDaemon}, {"gridd", onDaemon}} {
		t.Run(env.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					env.run(t, func(p core.Proc, car lease.Carrier, x levers) { c.body(t, p, car, x) })
				})
			}
		})
	}
}
