package griddclient

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/lease"
	"repro/internal/trace"
)

// Host is the engine a Carrier's clients run on: its clock, alarms and
// contexts, and Blocking, which releases the engine around a round
// trip so that other processes run meanwhile. live.Engine is one; so is
// sim.RT, whose Blocking just runs the round trip: there it is a call
// into a daemon on the same engine, which takes no virtual time.
type Host interface {
	Elapsed() time.Duration
	NewAlarm(fn func()) core.Alarm
	WithCancel(parent context.Context) (context.Context, context.CancelFunc)
	Blocking(fn func())
}

// Carrier is a lease.Carrier whose units live in a gridd daemon, as one
// resource: the gridd backend puts condor's FD table there, while the
// schedd and its clients stay on the host. Every method that needs the
// daemon makes its round trip inside Host.Blocking. A round trip that
// fails reads as a refusal: a failed probe as an empty carrier, a
// failed acquire as no units.
//
// The daemon owns tenure: its watchdog revokes a lease nobody renews.
// A lease's context is the host's, and ends one quantum of host time
// after the grant or the last renewal, when the daemon's watchdog
// fires, or at once when the daemon answers a renew or a release with
// stale. The per-holder ledger is kept here, on the host's clock, so
// wants are clocked where the clients run.
type Carrier struct {
	lease.Ledger
	h       Host
	c       *Client
	name    string
	quantum time.Duration // host time; 0 = unlimited tenure
	revokes int64         // the daemon's count, last read
}

var _ lease.Carrier = (*Carrier)(nil)

// NewCarrier creates (or resizes) the resource name with capacity units
// on c's daemon, leases lasting quantum of host time (0 = unlimited),
// and returns a carrier on it.
func NewCarrier(h Host, c *Client, name string, capacity int64, quantum time.Duration) (*Carrier, error) {
	var err error
	h.Blocking(func() {
		err = c.CreateResource(context.Background(), gridd.CreateRequest{
			Name: name, Capacity: capacity, QuantumNS: int64(c.ToReal(quantum)),
		})
	})
	if err != nil {
		return nil, err
	}
	return &Carrier{Ledger: lease.NewLedger(h), h: h, c: c, name: name, quantum: quantum}, nil
}

// Sense is carrier sense over the socket, one probe. Its Free is
// negative after a squeeze, as on a lease.Manager, where the reply's
// own Free stops at 0. A failed probe reads as an empty carrier.
func (car *Carrier) Sense() lease.Sense {
	var pr gridd.ProbeReply
	car.h.Blocking(func() { pr, _ = car.c.Probe(context.Background(), car.name) })
	return lease.Sense{Capacity: pr.Capacity, InUse: pr.InUse}
}

// SetCapacity resizes the resource. The daemon refuses a capacity
// below 1, and a failed resize leaves the old capacity, which Sense
// reports.
func (car *Carrier) SetCapacity(n int64) {
	car.h.Blocking(func() {
		_ = car.c.CreateResource(context.Background(), gridd.CreateRequest{Name: car.name, Capacity: n})
	})
}

// TryAcquire leases units for holder without waiting.
func (car *Carrier) TryAcquire(p lease.Parker, ctx context.Context, holder string, units int64) (lease.Lease, bool) {
	var l *Lease
	var err error
	car.h.Blocking(func() {
		l, err = car.c.Acquire(context.Background(), gridd.AcquireRequest{Resource: car.name, Holder: holder, Units: units})
	})
	if err != nil {
		car.NoteRefusal(holder)
		return lease.Lease{}, false
	}
	car.NoteGrant(holder)
	g := &grant{car: car, l: l, holder: holder}
	g.ctx, g.cancel = car.h.WithCancel(ctx)
	if p != nil {
		g.tr = p.Tracer()
	}
	if car.quantum > 0 {
		g.alarm = car.h.NewAlarm(g.revoke)
		g.alarm.Set(car.quantum)
	}
	g.tr.Acquire(car.name, units)
	return lease.Held(g), true
}

// Revocations reports the tenures the daemon's watchdog revoked, as the
// daemon counts them. A failed round trip reports the count last read.
func (car *Carrier) Revocations() int64 {
	var st gridd.StatsReply
	var err error
	car.h.Blocking(func() { st, err = car.c.Stats(context.Background(), car.name) })
	if err == nil {
		car.revokes = st.Revokes
	}
	return car.revokes
}

// grant is one lease the daemon granted, as a lease.Tenure.
type grant struct {
	car     *Carrier
	l       *Lease
	holder  string
	tr      *trace.Client
	ctx     context.Context
	cancel  context.CancelFunc
	alarm   core.Alarm // the daemon's watchdog, mirrored; nil for unlimited tenure
	done    bool
	revoked bool
}

func (g *grant) Epoch() uint64        { return g.l.Epoch }
func (g *grant) Ctx() context.Context { return g.ctx }
func (g *grant) Revoked() bool        { return g.revoked }

func (g *grant) stopAlarm() {
	if g.alarm != nil {
		g.alarm.Stop()
	}
}

// revoke ends the tenure as the daemon's watchdog did: the alarm's
// callback.
func (g *grant) revoke() {
	if g.done {
		return
	}
	g.done, g.revoked = true, true
	g.car.NoteRevoke(g.holder)
	g.tr.Revoke(g.car.name, g.l.Units)
	g.cancel()
}

// Renew asks the daemon for one more quantum. A stale answer means its
// watchdog got there first, and the tenure ends revoked. A round trip
// that failed otherwise leaves the deadline where it was, as a dropped
// renewal does on a lease.Manager's wire.
func (g *grant) Renew() bool {
	if g.done || g.alarm == nil {
		return !g.done
	}
	car := g.car
	var err error
	car.h.Blocking(func() { _, err = g.l.Renew(context.Background(), car.c.ToReal(car.quantum)) })
	switch {
	case errors.Is(err, core.ErrStale):
		g.stopAlarm()
		g.revoke()
	case err == nil && g.done:
		// The alarm ended the tenure while the renewal was in flight,
		// and the daemon renewed it anyway: the holder has let go, so
		// the units go back now rather than a quantum later.
		car.h.Blocking(func() { _ = g.l.Release(context.Background()) })
	case err == nil:
		g.alarm.Set(car.quantum)
	}
	return !g.done
}

// Release returns the units. A stale answer means the daemon's
// watchdog revoked the tenure first.
func (g *grant) Release() {
	if g.done {
		return
	}
	g.stopAlarm()
	var err error
	g.car.h.Blocking(func() { err = g.l.Release(context.Background()) })
	if errors.Is(err, core.ErrStale) {
		g.revoke()
		return
	}
	g.done = true
	g.tr.Release(g.car.name, g.l.Units)
	g.cancel()
}
