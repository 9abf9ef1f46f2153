// Package gridd is the networked service backend: a wall-clock HTTP
// daemon hosting the paper's contended resources — the schedd FD
// table, fsbuffer occupancy, replica service lanes — behind a small
// JSON wire protocol, so the Ethernet discipline's client code runs
// against a real socket instead of an in-process substrate.
//
// The daemon is a host of internal/lease, not a second implementation
// of it. Every resource is a lease.Book: the book's tenure Manager is
// the FIFO semaphore behind /acquire (epoch-fenced leases, a watchdog
// per tenure, the per-holder starvation ledger), the book itself the
// interval admission ledger behind /reserve and /claim, and the
// manager's fence is what turns a late or duplicated operation into
// core.ErrStale over the wire. What this package owns is what only a
// daemon has: the monitor (one mutex, presented to internal/lease as
// its clock and parker, so the state machine runs on the wall clock as
// it runs on the simulator's), the tables from wire ids to live leases
// and bookings, the daemon-only counters, and the two ways a resource
// ends tenures on its own account: a housekeeping failure that crashes
// it and revokes every grant (the broadcast jam of the submit
// scenario), and graceful shutdown, which mirrors the live engine's
// drain — new work is refused with a typed retriable error, in-flight
// grants are waited out, and whatever remains is revoked in (deadline,
// grant) order, exactly as live.Engine.Run fires leftover watchdogs.
package gridd

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ResourceConfig shapes one hosted resource; see CreateRequest for
// field semantics (this is its internal, time.Duration form).
type ResourceConfig struct {
	Name              string
	Capacity          int64
	Quantum           time.Duration // default tenure; 0 = unlimited
	Unfenced          bool
	HousekeepUnits    int64
	HousekeepInterval time.Duration
	RestartDelay      time.Duration
	CrashHolder       string
}

// Config shapes a Server.
type Config struct {
	// Resources are created at construction; more can be added over
	// the wire (POST /resources).
	Resources []ResourceConfig
}

// Server hosts the resources. One mutex — the monitor — guards all
// state, the same discipline as the live engine, and every timer
// callback takes it before touching anything.
type Server struct {
	mon      monitor
	res      map[string]*resource
	order    []*resource // creation order, for deterministic iteration
	draining bool

	reg *obs.Registry
	// scopes are sampled by /metrics; appended by registerObs, which by
	// the lock-ordering rule documented there never runs under mon.
	scopes []*obs.Scope
}

// NewServer builds a server hosting cfg.Resources.
func NewServer(cfg Config) *Server {
	s := &Server{
		mon: monitor{start: time.Now()},
		res: make(map[string]*resource),
		reg: obs.New(),
	}
	for _, rc := range cfg.Resources {
		s.mon.Lock()
		created := s.createLocked(rc)
		s.mon.Unlock()
		if created { // a name given twice resizes; its gauges exist
			s.registerObs(rc.Name)
		}
	}
	return s
}

// monitor is the daemon's one lock, presented to internal/lease as its
// Clock: wall time since construction, timers whose callbacks take the
// lock before they run, and plain contexts. It is to the daemon what
// the engine token is to the simulator — everything in internal/lease
// runs with it held, and a parked acquire gives it up (parked.Hang).
type monitor struct {
	sync.Mutex
	start time.Time
}

// Elapsed is the daemon clock: real time since construction.
func (m *monitor) Elapsed() time.Duration { return time.Since(m.start) }

func (m *monitor) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(parent)
}

// timer is a monitor timer. Cancel runs under the lock, but by then the
// callback may already be blocked on that same lock, where Stop cannot
// recall it; so the callback, once it holds the lock, checks stopped.
type timer struct {
	t       *time.Timer
	stopped bool
}

func (t *timer) Cancel() {
	t.stopped = true
	t.t.Stop()
}

// Schedule runs fn under the lock d from now unless canceled first.
func (m *monitor) Schedule(d time.Duration, fn func()) core.Timer {
	t := &timer{}
	t.t = time.AfterFunc(d, func() {
		m.Lock()
		defer m.Unlock()
		if !t.stopped {
			fn()
		}
	})
	return t
}

// parked is one long-polling acquire as the manager sees it (its
// lease.Parker). The manager calls Hang only if the request has to
// queue, so that is where it takes its FIFO position and leaves the
// handle a crash or drain flushes it by, before it gives the lock up
// until its wait context ends.
type parked struct {
	r     *resource
	flush context.CancelCauseFunc
	seq   uint64 // FIFO position; 0 = granted without parking
}

func (p *parked) Hang(ctx context.Context) error {
	r := p.r
	r.wseq++
	p.seq = r.wseq
	r.parked[p.seq] = p.flush
	r.srv.mon.Unlock()
	<-ctx.Done()
	r.srv.mon.Lock()
	delete(r.parked, p.seq)
	return context.Cause(ctx)
}

func (*parked) Tracer() *trace.Client { return nil }

// flushed is why the server itself failed a parked acquire; its text is
// the wire code the waiter answers with.
type flushed string

func (f flushed) Error() string { return string(f) }

// quietWire is the fault injector of a wire that is a real socket: it
// adds nothing, the faults arrive by themselves. Installing it is how
// the manager is told whether to fence (lease.Manager.SetWire).
type quietWire struct{}

func (quietWire) Inject(string) core.Fault { return core.Fault{} }

// resource is one hosted lease.Book and the daemon's view of it.
type resource struct {
	srv *Server
	cfg ResourceConfig

	book *lease.Book    // admission ledger: /reserve, /claim, /cancel
	mgr  *lease.Manager // book.Tenure(): the FIFO semaphore of /acquire

	// The id tables, wire ids to live state-machine objects. A lease's
	// wire id is its fencing epoch, a booking's its admission ordinal.
	// A row leaves when its tenure or window ends: the handler drops it
	// on a release, the hooks below when a timer gets there first.
	leases   map[uint64]held
	bookings map[uint64]*lease.Reservation
	parked   map[uint64]context.CancelCauseFunc // flush handles by FIFO position
	wseq     uint64

	down        bool
	downUntil   time.Duration // on the monitor clock
	hk, restart core.Timer

	// What only the daemon counts; the rest of StatsReply is read off
	// mgr and book. maxOutstanding is the high-water mark of
	// mgr.Outstanding, phantoms the grants admitted while it exceeded
	// capacity: a fenced resource can never get there, an unfenced one
	// whose books a duplicated release corrupted low does.
	releases, crashes, phantoms, doubleFrees, maxOutstanding int64
}

// held is one live lease's row. A claim keeps the booking it came from:
// release and renew go through the booking, so the book gets the rest
// of the window back and a renewal stops at the window's end.
type held struct {
	res  *resource
	l    *lease.Lease
	resv *lease.Reservation
}

// createLocked creates or resizes a resource, reporting whether it is
// new (and so still needs registerObs, which must not run under the
// lock). Only capacity changes on an existing resource; everything else
// is fixed at first creation so re-creates are idempotent.
func (s *Server) createLocked(rc ResourceConfig) (created bool) {
	if r, ok := s.res[rc.Name]; ok {
		if rc.Capacity > 0 && rc.Capacity != r.mgr.Capacity() {
			r.book.SetCapacity(rc.Capacity)
		}
		return false
	}
	r := &resource{
		srv:      s,
		cfg:      rc,
		book:     lease.NewBook(&s.mon, rc.Name, rc.Capacity),
		leases:   make(map[uint64]held),
		bookings: make(map[uint64]*lease.Reservation),
		parked:   make(map[uint64]context.CancelCauseFunc),
	}
	r.mgr = r.book.Tenure()
	r.mgr.SetWire(quietWire{}, rc.Name, !rc.Unfenced)
	r.mgr.SetHooks(lease.Hooks{Revoked: func(l *lease.Lease) { delete(r.leases, l.Epoch()) }})
	r.book.SetHooks(lease.BookHooks{Retired: func(b *lease.Reservation) { delete(r.bookings, b.ID()) }})
	s.res[rc.Name] = r
	s.order = append(s.order, r)
	if rc.HousekeepInterval > 0 && !s.draining {
		r.armHousekeeping()
	}
	return true
}

// admit enters a fresh lease in the id table and renders it for the
// wire. resv is the booking a claim came from (nil for an acquire),
// wseq the FIFO position if the acquire parked.
func (r *resource) admit(l *lease.Lease, resv *lease.Reservation, quantum time.Duration, wseq uint64) *LeaseReply {
	r.leases[l.Epoch()] = held{res: r, l: l, resv: resv}
	out := r.mgr.Outstanding()
	r.maxOutstanding = max(r.maxOutstanding, out)
	if out > r.mgr.Capacity() {
		r.phantoms++
	}
	deadline, _ := l.Deadline()
	return &LeaseReply{
		Resource:   r.cfg.Name,
		LeaseID:    l.Epoch(),
		Epoch:      l.Epoch(),
		Units:      l.Units(),
		QuantumNS:  int64(quantum),
		DeadlineNS: int64(deadline),
		WaiterSeq:  wseq,
		GrantSeq:   uint64(l.Ordinal()),
	}
}

// flush fails every parked acquire with cause. A flushed waiter's
// context is done, so the manager's pump skips it from here on.
func (r *resource) flush(cause flushed) {
	for _, cancel := range r.parked {
		cancel(cause)
	}
}

// drainOrder returns the live leases of rs by (deadline, grant order) —
// unlimited tenures last — the order the live engine drains leftover
// timers in. The sort is stable and grant order is per resource, so
// leases of equal rank come out in the order rs names their resources.
func drainOrder(rs ...*resource) []held {
	var hs []held
	for _, r := range rs {
		for _, h := range r.leases {
			hs = append(hs, h)
		}
	}
	sort.SliceStable(hs, func(i, j int) bool {
		di, iok := hs[i].l.Deadline()
		dj, jok := hs[j].l.Deadline()
		switch {
		case iok != jok:
			return iok // real deadlines before unlimited
		case di != dj:
			return di < dj
		}
		return hs[i].l.Ordinal() < hs[j].l.Ordinal()
	})
	return hs
}

// crash is the broadcast jam: the resource goes down for RestartDelay,
// parked acquires fail fast with CodeDown, and every live grant is
// revoked (their holders discover it as ErrStale on their next renew
// or release). The waiters go first: each Revoke pumps the queue, and
// would otherwise grant into a resource that is down.
func (r *resource) crash() {
	if r.down {
		return
	}
	r.crashes++
	r.down = true
	delay := r.cfg.RestartDelay
	if delay <= 0 {
		delay = time.Second
	}
	r.downUntil = r.srv.mon.Elapsed() + delay
	r.flush(flushed(CodeDown))
	for _, h := range drainOrder(r) {
		h.l.Revoke()
	}
	r.restart = r.srv.mon.Schedule(delay, func() { r.down = false })
}

// retryAfter is the down reply's hint: the time left until the outage
// ends, in nanoseconds. The restart timer can fire and then wait on the
// monitor while a handler still reads the resource as down, so the end
// may already be past; the hint is then 0 ("none"), never negative.
func (r *resource) retryAfter() int64 {
	return int64(max(r.downUntil-r.srv.mon.Elapsed(), 0))
}

// armHousekeeping starts the periodic housekeeping loop: every
// interval the daemon needs HousekeepUnits free units transiently;
// not finding them is the overload signal that crashes the resource.
func (r *resource) armHousekeeping() {
	r.hk = r.srv.mon.Schedule(r.cfg.HousekeepInterval, func() {
		if !r.down && r.cfg.HousekeepUnits > r.mgr.Free() {
			r.crash()
		}
		r.armHousekeeping()
	})
}

// DrainRecord is one forced revocation during Shutdown, in firing
// order — the shutdown analogue of the live engine's timer drain.
type DrainRecord struct {
	Resource   string
	LeaseID    uint64
	Holder     string
	DeadlineNS int64  // 0 = unlimited tenure
	Seq        uint64 // the lease's GrantSeq (per resource)
}

// Shutdown drains the server: new acquires and reservations are
// refused with CodeDraining (a typed, retriable verdict), parked
// acquires are flushed, housekeeping stops, and in-flight grants are
// given until ctx expires to land their releases. Grants still live
// at the deadline are revoked in (deadline, grant) order — matching
// live.Engine.Run's drain semantics — and the firing order is returned
// so tests can assert it. Bookings still open are forfeited, so no
// timer outlives the daemon. Idempotent (a second call finds nothing
// left to revoke); safe to call while handlers are in flight.
func (s *Server) Shutdown(ctx context.Context) []DrainRecord {
	s.mon.Lock()
	s.draining = true
	for _, r := range s.order {
		r.flush(flushed(CodeDraining))
		for _, t := range []core.Timer{r.hk, r.restart} {
			if t != nil {
				t.Cancel()
			}
		}
		r.down = false
	}
	s.mon.Unlock()

	// Wait for in-flight grants to drain (their releases and watchdogs
	// still run), polling on the wall clock.
	for s.outstanding() > 0 && ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
	}

	s.mon.Lock()
	defer s.mon.Unlock()
	var recs []DrainRecord
	for _, h := range drainOrder(s.order...) {
		deadline, _ := h.l.Deadline()
		recs = append(recs, DrainRecord{
			Resource:   h.res.cfg.Name,
			LeaseID:    h.l.Epoch(),
			Holder:     h.l.Holder(),
			DeadlineNS: int64(deadline),
			Seq:        uint64(h.l.Ordinal()),
		})
		h.l.Revoke()
	}
	for _, r := range s.order {
		for _, b := range r.bookings {
			b.Release()
		}
	}
	return recs
}

// outstanding is the units still out across all resources.
func (s *Server) outstanding() (tot int64) {
	s.mon.Lock()
	defer s.mon.Unlock()
	for _, r := range s.order {
		tot += r.mgr.Outstanding()
	}
	return tot
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mon.Lock()
	defer s.mon.Unlock()
	return s.draining
}
