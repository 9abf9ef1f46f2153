// Package lease implements limited allocation as a first-class tenure
// discipline: time- and quantity-bounded holds on a shared resource,
// measured on the simulator's virtual clock.
//
// The paper's fourth Ethernet principle — release periodically so
// competitors are not starved — is enforced here rather than left to
// each caller's good manners. Manager.Acquire returns a Lease with a
// deadline; the holder must Renew or Release before the quantum runs
// out, or an expiry watchdog forcibly revokes the tenure: the lease
// context is canceled (waking a holder stuck mid-operation) and the
// units are reclaimed for the next waiter. A quantum of zero disables
// the watchdog entirely and degenerates to a plain counting semaphore,
// so legacy unlimited-allocation behavior is a configuration, not a
// separate code path. The Manager is the repository's one FIFO
// semaphore: carriers that want no tenure at all (condor's service
// slots, fsbuffer's file server and allocator lane) Take and Put raw
// units in the same queue as the leases, on every backend.
//
// The Manager also keeps per-client fairness accounting (grants,
// rejects, revocations, and the longest interval each client spent
// wanting the resource without holding it), which the experiment layer
// folds into Jain's fairness index and the no-starvation invariant.
//
// Each ledger is kept once, in the exported fields of Manager and Book,
// and read where it lives: Manager.Observe and Book.Observe register
// polled families over those fields (grid_lease_*, grid_book_*) under a
// resource label, and the simulator cells, the live cells and gridd all
// call them, so the three backends export one namespace. A host that
// keeps its own table of live objects learns of the ones a timer ends
// through the one callback per type: OnRevoke (a tenure the watchdog or
// Lease.Revoke reclaimed) and OnRetire (a booking that left the book).
package lease

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrRevoked reports that a lease's tenure expired and was forcibly
// reclaimed by the expiry watchdog.
var ErrRevoked = errors.New("lease revoked: tenure expired")

// Clock is what the manager needs from its host: elapsed time, one-shot
// timers, a re-armable alarm for each lease record's watchdog, and
// cancelable contexts. core.Backend (the simulator, the live engine)
// satisfies it; so does gridd's monitor, which puts the wall clock and
// the daemon's mutex behind the same four methods. The host
// serialises access: every method in this package, and every callback
// the clock fires, runs under the host's token or lock.
type Clock interface {
	Elapsed() time.Duration
	Schedule(d time.Duration, fn func()) core.Timer
	NewAlarm(fn func()) core.Alarm
	WithCancel(parent context.Context) (context.Context, context.CancelFunc)
}

// Parker is the calling process as the manager sees it: something that
// can park until a context ends (giving up the host's token meanwhile)
// and that may carry a trace handle. core.Proc satisfies it; a nil
// Parker is allowed wherever nothing parks (it only loses tracing).
type Parker interface {
	Hang(ctx context.Context) error
	Tracer() *trace.Client
}

// Manager is a FIFO counting semaphore whose grants are leases. All
// methods must run under the engine token (from processes or timer
// callbacks); with a nil engine the manager still works as a plain
// counter (no parking, no watchdogs).
type Manager struct {
	eng      Clock
	name     string
	quantum  time.Duration
	capacity int64
	inUse    int64
	waiters  []*waiter
	// onRevoke is told of each tenure the watchdog (or Lease.Revoke)
	// reclaims; see OnRevoke.
	onRevoke func(Lease)
	free     []*record // records whose holders released them intact

	// wire, when non-nil, is the unreliable channel between holders and
	// the manager: lease control messages (release, renew) may be
	// dropped, duplicated, or delayed by the installed injector. See
	// wire.go.
	wire *wire
	// nextEpoch mints monotone fencing epochs for grants; fence is the
	// highest epoch the manager has retired (released or revoked).
	nextEpoch uint64
	fence     uint64
	// outstanding is ground truth: units genuinely in use by live
	// holders, maintained by lease lifecycle alone and immune to the
	// bookkeeping (inUse) that a lossy wire can corrupt. The
	// no-double-allocation invariant is outstanding <= capacity.
	outstanding int64

	// Stats, readable at any point under the engine token; Observe
	// exports them.
	Acquires int64 // granted tenures (leased or raw)
	Rejects  int64 // TryAcquire failures
	Timeouts int64 // waiters abandoned by cancellation
	Revokes  int64 // tenures forcibly reclaimed by the watchdog
	// RevokedUnits counts the units those revocations reclaimed: on a
	// reservation book's tenure manager this is exactly the dead-window
	// capacity (booked but revoked units) the FigRes sweep measures.
	RevokedUnits int64
	Drops        int64 // lease control messages swallowed by the wire
	Dups         int64 // lease control messages duplicated by the wire
	Stales       int64 // stale-epoch operations fenced off (fenced wire only)

	// Ledger is the per-holder fairness ledger, on the manager's clock.
	Ledger
}

type waiter struct {
	ctx     context.Context // wait context, child of the caller's
	cancel  context.CancelFunc
	units   int64
	ordinal int64 // the manager's grant count when the pump admitted it
	granted bool
	gone    bool
}

// dead reports whether the waiter can no longer be granted: it gave up,
// or its context was canceled before a grant arrived. Checking ctx.Err
// here closes the window between a cancellation cascading through the
// wait context and the waiter goroutine resuming to mark itself gone.
func (w *waiter) dead() bool {
	return w.gone || (!w.granted && w.ctx.Err() != nil)
}

// New returns a manager for capacity units of the named resource with
// the given tenure quantum. quantum <= 0 (or a nil engine) means
// unlimited tenure: leases never expire and no watchdog is scheduled.
func New(e Clock, name string, capacity int64, quantum time.Duration) *Manager {
	if capacity < 0 {
		capacity = 0
	}
	if e == nil {
		quantum = 0
	}
	return &Manager{eng: e, name: name, quantum: quantum, capacity: capacity, Ledger: NewLedger(e)}
}

// Family names of the manager's ledger, as Observe registers them.
const (
	MGrants       = "grid_lease_grants_total"
	MRejects      = "grid_lease_rejects_total"
	MTimeouts     = "grid_lease_timeouts_total"
	MRevokes      = "grid_lease_revokes_total"
	MRevokedUnits = "grid_lease_revoked_units_total"
	MDrops        = "grid_lease_msg_drops_total"
	MDups         = "grid_lease_msg_dups_total"
	MStales       = "grid_lease_stale_total"
	MInUse        = "grid_lease_units_inuse"
	MQueue        = "grid_lease_queue_depth"
	MCapacity     = "grid_lease_capacity_units"
	MOutstanding  = "grid_lease_outstanding_units"
)

// Observe registers the manager's ledger with sc under the resource
// label: each family reads its field at sample time, so the ledger is
// counted once, here, on every backend. The sampler runs under the
// host's token or lock, like every other method.
func (m *Manager) Observe(sc *obs.Scope, resource string) {
	counter(sc, resource, MGrants, "Tenures granted (leased or raw).", &m.Acquires)
	counter(sc, resource, MRejects, "Try-acquire failures.", &m.Rejects)
	counter(sc, resource, MTimeouts, "Waiters abandoned by cancellation.", &m.Timeouts)
	counter(sc, resource, MRevokes, "Tenures reclaimed by the expiry watchdog.", &m.Revokes)
	counter(sc, resource, MRevokedUnits, "Units reclaimed by revocation (dead-window capacity).", &m.RevokedUnits)
	counter(sc, resource, MDrops, "Lease-control messages the channel dropped.", &m.Drops)
	counter(sc, resource, MDups, "Lease-control messages the channel duplicated.", &m.Dups)
	counter(sc, resource, MStales, "Stale-epoch messages the fence rejected.", &m.Stales)
	sc.GaugeFunc(MInUse, "Units currently held.", func() float64 { return float64(m.inUse) }, "resource", resource)
	sc.GaugeFunc(MQueue, "Processes waiting to acquire.", func() float64 { return float64(m.QueueLen()) }, "resource", resource)
	sc.GaugeFunc(MCapacity, "Total units.", func() float64 { return float64(m.capacity) }, "resource", resource)
	sc.GaugeFunc(MOutstanding, "Units across live grants (ground truth).", func() float64 { return float64(m.outstanding) }, "resource", resource)
}

// counter registers the ledger field n with sc as a polled counter
// under the resource label.
func counter(sc *obs.Scope, resource, name, help string, n *int64) {
	sc.CounterFunc(name, help, func() float64 { return float64(*n) }, "resource", resource)
}

// OnRevoke tells fn of each tenure the watchdog (or Lease.Revoke)
// reclaims, so a host that keeps its own table of live leases —
// gridd's wire ids — can drop the entry. Install it before the run
// starts (engine token).
func (m *Manager) OnRevoke(fn func(Lease)) { m.onRevoke = fn }

// Name returns the resource's diagnostic name.
func (m *Manager) Name() string { return m.name }

// Sense returns the total and the held units. Its Free can be
// negative after a capacity shrink; held units drain as leases end.
func (m *Manager) Sense() Sense { return Sense{Capacity: m.capacity, InUse: m.inUse} }

// Quantum returns the tenure quantum (0 = unlimited).
func (m *Manager) Quantum() time.Duration { return m.quantum }

// SetQuantum changes the tenure quantum for leases granted from now
// on; outstanding leases keep their current deadlines.
func (m *Manager) SetQuantum(d time.Duration) {
	if d < 0 || m.eng == nil {
		d = 0
	}
	m.quantum = d
}

// SetCapacity adjusts capacity at runtime (e.g. an administrator
// retuning a kernel table). Negative values clamp to zero. Shrinking
// below InUse is allowed; units drain as leases end. Growing grants
// queued waiters immediately.
func (m *Manager) SetCapacity(n int64) {
	if n < 0 {
		n = 0
	}
	m.capacity = n
	m.grantWaiters()
}

// QueueLen returns the number of live processes waiting to acquire.
func (m *Manager) QueueLen() int {
	n := 0
	for _, w := range m.waiters {
		if !w.granted && !w.dead() {
			n++
		}
	}
	return n
}

// Revocations returns Revokes.
func (m *Manager) Revocations() int64 { return m.Revokes }

// fits reports whether units are free on the books. It compares
// without adding: units comes from outside (over gridd's socket), and
// inUse+units wraps negative for a large enough request, which would
// admit it.
func (m *Manager) fits(units int64) bool { return units <= m.capacity-m.inUse }

// Take takes units without a lease, parking the process in the same
// FIFO queue as Acquire until they are free or ctx is canceled
// (returning the cancellation cause). It mints no lease, epoch or
// ledger row and emits no trace event; the caller returns the units
// with Put.
func (m *Manager) Take(p Parker, ctx context.Context, units int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.fits(units) && m.QueueLen() == 0 {
		m.inUse += units
		m.Acquires++
	} else if _, err := m.wait(p, ctx, units); err != nil {
		return err
	}
	m.outstanding += units
	return nil
}

// Put returns units taken with Take. Returning more than was taken
// panics: that is a simulation bug.
func (m *Manager) Put(units int64) {
	m.outstanding -= units
	m.release(units)
}

// TryAcquire takes units as a lease without waiting, reporting
// success. On failure the holder is marked as wanting the resource,
// so the starvation clock runs until a later grant.
func (m *Manager) TryAcquire(p Parker, ctx context.Context, holder string, units int64) (Lease, bool) {
	return m.TryAcquireFor(p, ctx, holder, units, m.quantum)
}

// TryAcquireFor is TryAcquire with an explicit tenure for this lease
// alone, as GrantFor is to Grant: gridd's acquire carries its own
// quantum over the wire. d <= 0 means unlimited tenure.
func (m *Manager) TryAcquireFor(p Parker, ctx context.Context, holder string, units int64, d time.Duration) (Lease, bool) {
	if m.fits(units) && m.QueueLen() == 0 {
		return m.GrantFor(p, ctx, holder, units, d), true
	}
	m.Rejects++
	m.NoteRefusal(holder)
	return Lease{}, false
}

// Acquire takes units as a lease, parking the process in FIFO order
// until they are free or ctx is canceled (returning the cancellation
// cause). Waiters whose units do not fit block the queue head, which
// keeps the discipline FIFO-fair for mixed sizes.
func (m *Manager) Acquire(p Parker, ctx context.Context, holder string, units int64) (Lease, error) {
	return m.AcquireFor(p, ctx, holder, units, m.quantum)
}

// AcquireFor is Acquire with an explicit tenure for this lease alone
// (see TryAcquireFor).
func (m *Manager) AcquireFor(p Parker, ctx context.Context, holder string, units int64, d time.Duration) (Lease, error) {
	if err := ctx.Err(); err != nil {
		return Lease{}, err
	}
	if m.fits(units) && m.QueueLen() == 0 {
		return m.GrantFor(p, ctx, holder, units, d), nil
	}
	m.NoteWant(holder)
	ordinal, err := m.wait(p, ctx, units)
	if err != nil {
		return Lease{}, err
	}
	m.NoteGrant(holder)
	l := m.newLease(p, ctx, holder, units, d)
	// The pump admitted this waiter before the process got to run again;
	// under a host whose processes race for a lock (gridd) other grants
	// may have been minted in between, so the admission ordinal is the
	// pump's, not the current count.
	l.rec().ordinal = ordinal
	return l, nil
}

// wait parks p at the tail of the FIFO queue until the pump grants it
// units (returning the grant's admission ordinal) or ctx ends
// (returning the cancellation cause). A grant that races the
// cancellation wins: the units are booked to the caller.
func (m *Manager) wait(p Parker, ctx context.Context, units int64) (int64, error) {
	wctx, wcancel := m.eng.WithCancel(ctx)
	w := &waiter{ctx: wctx, cancel: wcancel, units: units}
	m.waiters = append(m.waiters, w)
	herr := p.Hang(wctx)
	// The pump's cancel only woke us; this one ends the wait context's
	// tenure. A waiter left in the queue is gone, so the pump skips it
	// without reading the context again.
	w.gone = !w.granted
	w.ctx, w.cancel = nil, nil
	wcancel()
	if !w.granted {
		m.Timeouts++
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, herr
	}
	return w.ordinal, nil
}

// Grant takes units unconditionally as a lease: the caller has already
// arbitrated admission (the fsbuffer allocator grants under its own
// lane) and only wants the tenure discipline.
func (m *Manager) Grant(p Parker, ctx context.Context, holder string, units int64) Lease {
	return m.GrantFor(p, ctx, holder, units, m.quantum)
}

// GrantFor is Grant with an explicit tenure for this lease alone,
// overriding the manager's quantum: the reservation book grants claim
// leases whose watchdog fires exactly at the booked window's end, not
// one global quantum from now. d <= 0 means unlimited tenure.
func (m *Manager) GrantFor(p Parker, ctx context.Context, holder string, units int64, d time.Duration) Lease {
	m.NoteGrant(holder)
	m.inUse += units
	m.Acquires++
	return m.newLease(p, ctx, holder, units, d)
}

// release returns units and grants them to queued waiters.
func (m *Manager) release(units int64) {
	if units > m.inUse && (m.wire == nil || m.wire.fenced) {
		panic("lease: release underflow on " + m.name)
	}
	// The unfenced arm's double-frees leave the books understated, so an
	// honest release can find less booked than it returns. Clamp and
	// keep running: the invariant checker, not a panic, reports the
	// corruption.
	m.releaseLoose(units)
}

// grantWaiters hands free units to queued waiters in FIFO order. A
// grant wakes the waiter by canceling its wait context; the granted
// flag distinguishes that wakeup from a real cancellation.
func (m *Manager) grantWaiters() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		if w.dead() {
			m.waiters = m.waiters[1:]
			continue
		}
		if !m.fits(w.units) {
			return
		}
		m.waiters = m.waiters[1:]
		w.granted = true
		m.inUse += w.units
		m.Acquires++
		w.ordinal = m.Acquires
		w.cancel()
	}
}

// newLease opens a tenure on a record from the manager's free list (or
// a new one), arming the expiry watchdog when a tenure is given. The
// trace acquire event is emitted last so event order matches the
// pre-lease code paths exactly.
func (m *Manager) newLease(p Parker, ctx context.Context, holder string, units int64, quantum time.Duration) Lease {
	m.nextEpoch++
	m.outstanding += units
	var r *record
	if k := len(m.free); k > 0 {
		r = m.free[k-1]
		m.free[k-1] = nil
		m.free = m.free[:k-1]
	} else {
		r = &record{m: m}
	}
	*r = record{m: m, alarm: r.alarm, holder: holder, units: units, parent: ctx, quantum: quantum, epoch: m.nextEpoch, ordinal: m.Acquires}
	if p != nil {
		r.tr = p.Tracer()
	}
	if quantum > 0 && m.eng != nil {
		r.ctx, r.cancel = m.eng.WithCancel(ctx)
		r.deadline = m.eng.Elapsed() + quantum
		if r.alarm == nil {
			r.alarm = m.eng.NewAlarm(r.expire) // bound once per record
		}
		r.watched = true
		r.alarm.Set(quantum)
	}
	r.tr.Acquire(m.name, units)
	if m.wire != nil {
		m.wire.grant(r)
	}
	return Lease{r: r, epoch: r.epoch}
}

// recycle puts a record whose tenure its holder released, and the
// manager heard released, back on the free list, unless the wire still
// owes it a delayed renewal. Its epoch goes to 0, which no handle
// carries, so every handle on it is stale at once.
func (m *Manager) recycle(r *record) {
	if r.owed > 0 {
		return
	}
	r.epoch = 0
	r.holder, r.tr, r.parent, r.ctx = "", nil, nil, nil
	m.free = append(m.free, r)
}

// Lease is a handle on one granted tenure: its state (a manager's
// record, or a grant a remote carrier holds, see Tenure) and the
// fencing epoch the grant minted. The holder works under Ctx,
// renews before the deadline to keep going, and releases when done; if
// the deadline passes first the watchdog revokes the tenure out from
// under it.
//
// A Manager reuses its records: a tenure its holder released hands its
// record back once the release reached the manager (a revoked tenure's
// record is left to the collector, and the wire keeps a record until
// it has delivered what it carries). Epochs are unique per grant, so a
// handle whose record has moved on acts on an ended lease: Release and
// Revoke do nothing, Renew reports false, Revoked reports false (only a
// tenure released intact is reused), Ctx is canceled, Holder, Units,
// Deadline and Ordinal are zero, and nothing reaches the record's next
// tenant. The zero Lease is such a handle. Handles are values: copy
// them freely. Holder, Units, Deadline, Ordinal, Revoke and RenewFor
// read a manager's record; on a remote grant they act as on an ended
// lease.
type Lease struct {
	r     Tenure
	epoch uint64
}

// record is one tenure's state, reused across tenures by its manager.
type record struct {
	m        *Manager
	holder   string
	units    int64
	quantum  time.Duration // this lease's own tenure (renewal step)
	epoch    uint64        // this tenure's fencing epoch; 0 on the free list
	ordinal  int64         // the manager's grant count at admission
	tr       *trace.Client
	parent   context.Context
	ctx      context.Context
	cancel   context.CancelFunc
	alarm    core.Alarm // the watchdog, r.expire, made once per record
	watched  bool       // the alarm guards this tenure (limited tenure)
	owed     int        // delayed renewals the wire has yet to deliver
	deadline time.Duration
	done     bool
	revoked  bool
	ended    bool // outstanding units already returned (ground truth)
	lost     bool // release message dropped: manager never heard the end
	inFlight bool // release message delayed: delivery pending
}

// tenure returns the handle's state while the tenure it names is the
// state's current one, else over.
func (l Lease) tenure() Tenure {
	if l.r != nil && l.r.Epoch() == l.epoch {
		return l.r
	}
	return &over
}

// rec is tenure for the accessors only a manager's record answers.
func (l Lease) rec() *record {
	if r, ok := l.r.(*record); ok && r.epoch == l.epoch {
		return r
	}
	return &over
}

// over is the record a stale or zero handle reads: a tenure that has
// ended, whose context is canceled. Every path through an ended record
// returns before it writes, so one record serves every manager.
var over = record{done: true, ctx: ended}

// endOutstanding returns the lease's units to the ground-truth ledger
// exactly once: at the holder-side end of the tenure (Release called,
// or the watchdog's cancellation stopping the holder).
func (r *record) endOutstanding() {
	if !r.ended {
		r.ended = true
		r.m.outstanding -= r.units
	}
}

// endCtx cancels the lease context, once per tenure. The holder's own
// cancel ends the context's tenure on its host (a simulator recycles
// it), so the record keeps no pointer to it afterwards.
func (r *record) endCtx() {
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
		r.ctx = ended
	}
}

// ended is the context of a tenure that is over: what Ctx returns once
// the lease context was canceled, and to a stale handle.
var ended = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// Ctx returns the context the holder must work under: canceled on
// revocation. With an unlimited quantum it is the acquisition context
// itself (no watchdog, no extra context).
func (l Lease) Ctx() context.Context { return l.tenure().Ctx() }

// Epoch is the epoch of the tenure the record holds now.
func (r *record) Epoch() uint64 { return r.epoch }

// Ctx is Lease.Ctx.
func (r *record) Ctx() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return r.parent
}

// Holder returns the holder name the lease was granted to.
func (l Lease) Holder() string { return l.rec().holder }

// Units returns the number of units held.
func (l Lease) Units() int64 { return l.rec().units }

// Deadline returns the virtual time the tenure expires; ok is false
// for unlimited tenure.
func (l Lease) Deadline() (time.Duration, bool) {
	r := l.rec()
	return r.deadline, r.watched
}

// Revoked reports whether the watchdog reclaimed this tenure.
func (l Lease) Revoked() bool { return l.tenure().Revoked() }

// Revoked is Lease.Revoked.
func (r *record) Revoked() bool { return r.revoked }

// Ordinal returns the manager's grant count (Acquires) at the moment
// this tenure was admitted: 1 for the first grant, in admission order
// even when the admitted processes resume out of order.
func (l Lease) Ordinal() int64 { return l.rec().ordinal }

// Revoke ends the tenure now, exactly as the watchdog would at its
// deadline: the host's own reasons to reclaim (a crashed resource, a
// draining daemon) take the same path as an overstayed quantum. A
// tenure that already ended is left alone.
func (l Lease) Revoke() {
	r := l.rec()
	if r.watched {
		r.alarm.Stop()
	}
	r.expire()
}

// Renew extends the tenure by one quantum from now, reporting whether
// the lease was still live. Renewing an unlimited lease is a no-op
// that reports true.
func (l Lease) Renew() bool { return l.tenure().Renew() }

// Renew is Lease.Renew.
func (r *record) Renew() bool { return r.renewFor(r.quantum) }

// RenewFor extends the tenure to d from now, reporting whether the
// lease was still live. It is Renew with an explicit tenure: the
// reservation book clamps renewals to the booked window's end, never
// one whole quantum past it. d <= 0 leaves the deadline unchanged.
//
// With a wire installed the renewal message itself crosses the
// unreliable channel: it may be dropped (the holder believes it
// renewed; the watchdog fires on the old schedule) or delayed (the
// extension lands late — or arrives after a revocation, where a fenced
// manager rejects the stale epoch).
func (l Lease) RenewFor(d time.Duration) bool { return l.rec().renewFor(d) }

func (r *record) renewFor(d time.Duration) bool {
	if r.done {
		return false
	}
	if !r.watched || d <= 0 {
		return true
	}
	if w := r.m.wire; w != nil {
		if w.renew(r, d) {
			return true // the wire consumed (dropped/delayed) the message
		}
	}
	r.extend(d)
	return true
}

// extend applies a renewal: the watchdog is pushed to d from now.
func (r *record) extend(d time.Duration) {
	r.deadline = r.m.eng.Elapsed() + d
	r.alarm.Set(d)
}

// Release ends the tenure and returns the units. Releasing a revoked
// or already-released lease is a no-op, so holders can defer Release
// unconditionally. A release that ends a live tenure hands the record
// back to the manager for the next grant.
//
// With a wire installed the release message crosses the unreliable
// channel: it may be dropped (the units leak until the watchdog
// reclaims them), delayed (a revocation can race the delivery), or
// duplicated (a fenced manager rejects the second copy as stale; an
// unfenced one double-frees — the double-allocation hazard).
func (l Lease) Release() { l.tenure().Release() }

// Release is Lease.Release.
func (r *record) Release() {
	if r.done {
		return
	}
	r.done = true
	r.endOutstanding() // the holder genuinely stops using the units now
	m := r.m
	if w := m.wire; w != nil {
		if w.release(r) {
			return // the wire consumed (dropped/delayed/duplicated) it
		}
	}
	if r.watched {
		r.alarm.Stop()
	}
	r.endCtx()
	m.retire(r.epoch)
	m.release(r.units)
	r.tr.Release(m.name, r.units)
	m.recycle(r)
}

// expire is the watchdog: the quantum ran out without a Renew or
// Release, so the tenure is revoked. The lease context is canceled
// first (waking a holder stuck mid-operation at this instant), then
// the units go back to the pool for waiting competitors.
//
// When the holder's release was lost or is still in flight on the
// wire, the manager never heard the tenure end — from its side this is
// an ordinary expiry, and the watchdog is exactly the mechanism that
// heals the leak.
func (r *record) expire() {
	switch {
	case !r.done:
		r.done = true
		r.endOutstanding() // cancellation below forcibly stops the holder
	case r.lost || r.inFlight:
		// Reclaim a tenure whose release the manager never received. A
		// delivery still in flight now races a completed revocation: the
		// fence decides (see wire.deliverRelease).
		r.lost = false
	default:
		return
	}
	m := r.m
	r.revoked = true
	m.Revokes++
	m.RevokedUnits += r.units
	m.NoteRevoke(r.holder)
	if m.onRevoke != nil {
		m.onRevoke(Lease{r: r, epoch: r.epoch})
	}
	r.tr.Revoke(m.name, r.units)
	r.endCtx() // a no-op when the wire already canceled at the lost release
	m.retire(r.epoch)
	m.release(r.units)
}
