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
// core.ErrStale over the wire.
//
// The daemon is its operations, one typed call on Server per endpoint
// (http.go is one codec over them), run on a host: the monitor — one
// lock and the wall clock — or, in tests, a simulator engine, on which
// they replay from a seed. Beside them the package owns the tables from
// wire ids to live leases and bookings, the daemon-only counters, and
// the one way the daemon ends tenures on its own account: graceful
// shutdown, which mirrors the live engine's drain — new work is refused
// with a typed retriable error, in-flight grants are waited out, and
// whatever remains is revoked in (deadline, grant) order, exactly as
// live.Engine.Run fires leftover watchdogs. (The schedd a crowded FD
// table crashes is the client's, in internal/condor: the daemon hosts
// the table, not the crash rule.)
package gridd

import (
	"context"
	"errors"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/obs"
)

// ResourceConfig shapes one hosted resource; see CreateRequest for
// field semantics (this is its internal, time.Duration form).
type ResourceConfig struct {
	Name     string
	Capacity int64
	Quantum  time.Duration // default tenure; 0 = unlimited
	Unfenced bool
}

// Config shapes a Server.
type Config struct {
	// Resources are created at construction; more can be added over
	// the wire (POST /resources).
	Resources []ResourceConfig
}

// Server hosts the resources. One lock — the host's — guards all
// state, the same discipline as the live engine, and every timer
// callback takes it before touching anything.
type Server struct {
	host     host
	res      map[string]*resource
	order    []*resource // creation order, for deterministic iteration
	draining bool

	mux *http.ServeMux // the codec over the operations (http.go)
}

// NewServer builds a server hosting cfg.Resources on the monitor.
func NewServer(cfg Config) *Server {
	return newServer(&monitor{start: time.Now()}, cfg)
}

// NewServerOn builds a server hosting cfg.Resources on clk, a clock
// that runs one thing at a time, such as a simulator engine: its
// operations, called from clk's processes (or between runs), and its
// timers share clk's one thread, so they take no lock, and on a
// simulator they replay from its seed. Nothing parks on such a server's
// Handler or RoundTrip: a long poll that would have to queue is refused
// at once, as if it had not asked to wait.
func NewServerOn(clk lease.Clock, cfg Config) *Server {
	return newServer(unlocked{clk}, cfg)
}

// unlocked is NewServerOn's host: the caller's clock, and no lock.
type unlocked struct{ lease.Clock }

func (unlocked) Lock()   {}
func (unlocked) Unlock() {}

// newServer builds a server on h.
func newServer(h host, cfg Config) *Server {
	s := &Server{
		host: h,
		res:  make(map[string]*resource),
	}
	s.mux = s.routes()
	h.Lock()
	defer h.Unlock()
	for _, rc := range cfg.Resources {
		s.createLocked(rc)
	}
	return s
}

// host is what the operations run on: internal/lease's clock, whose
// timer callbacks take the lock, and the lock every operation holds.
type host interface {
	lease.Clock
	sync.Locker
}

// parked is a long-polling acquire's parker (the monitor, or a
// simulator process) wrapped in the FIFO bookkeeping: the manager calls
// Hang only if the request has to queue, so that is where it takes its
// FIFO position and joins the list a drain flushes.
type parked struct {
	lease.Parker
	r       *resource
	cancel  context.CancelFunc // ends the wait
	seq     uint64             // FIFO position; 0 = granted without parking
	drained bool               // flushed by a drain
}

func (p *parked) Hang(ctx context.Context) error {
	r := p.r
	r.wseq++
	p.seq = r.wseq
	r.parked = append(r.parked, p)
	err := p.Parker.Hang(ctx)
	r.parked = slices.DeleteFunc(r.parked, func(q *parked) bool { return q == p })
	return err
}

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
	// A row leaves when its tenure or window ends: the Release
	// operation drops it, the OnRevoke and OnRetire callbacks when a
	// timer gets there first.
	leases   map[uint64]held
	bookings map[uint64]*lease.Reservation
	parked   []*parked // the long polls in the queue, in FIFO order
	wseq     uint64

	// What only the daemon counts; the rest of StatsReply is read off
	// mgr and book. maxOutstanding is the high-water mark of
	// mgr.Outstanding, phantoms the grants admitted while it exceeded
	// capacity: a fenced resource can never get there, an unfenced one
	// whose books a duplicated release corrupted low does.
	releases, phantoms, doubleFrees, maxOutstanding int64
}

// held is one live lease's row. A claim keeps the booking it came from:
// release and renew go through the booking, so the book gets the rest
// of the window back and a renewal stops at the window's end.
type held struct {
	res  *resource
	l    lease.Lease
	resv *lease.Reservation
}

// createLocked creates or resizes a resource. Only capacity changes on
// an existing resource; everything else is fixed at first creation so
// re-creates are idempotent.
func (s *Server) createLocked(rc ResourceConfig) {
	if r, ok := s.res[rc.Name]; ok {
		if rc.Capacity > 0 && rc.Capacity != r.mgr.Sense().Capacity {
			r.book.SetCapacity(rc.Capacity)
		}
		return
	}
	r := &resource{
		srv:      s,
		cfg:      rc,
		book:     lease.NewBook(s.host, rc.Name, rc.Capacity),
		leases:   make(map[uint64]held),
		bookings: make(map[uint64]*lease.Reservation),
	}
	r.mgr = r.book.Tenure()
	r.mgr.SetWire(quietWire{}, rc.Name, !rc.Unfenced)
	r.mgr.OnRevoke(func(l lease.Lease) { delete(r.leases, l.Epoch()) })
	r.book.OnRetire(func(b *lease.Reservation) { delete(r.bookings, b.ID()) })
	s.res[rc.Name] = r
	s.order = append(s.order, r)
}

// observe registers the resource's metric families with sc.
func (r *resource) observe(sc *obs.Scope) {
	r.mgr.Observe(sc, r.cfg.Name)
	r.book.Observe(sc, r.cfg.Name)
	sc.CounterFunc("gridd_phantoms_total", "Grants admitted past ground-truth capacity.",
		func() float64 { return float64(r.phantoms) }, "resource", r.cfg.Name)
}

// admit enters a fresh lease in the id table and renders it for the
// wire. resv is the booking a claim came from (nil for an acquire),
// wseq the FIFO position if the acquire parked.
func (r *resource) admit(l lease.Lease, resv *lease.Reservation, quantum time.Duration, wseq uint64) *LeaseReply {
	r.leases[l.Epoch()] = held{res: r, l: l, resv: resv}
	out := r.mgr.Outstanding()
	r.maxOutstanding = max(r.maxOutstanding, out)
	if out > r.mgr.Sense().Capacity {
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

// flush fails every parked acquire: the daemon is draining. A flushed
// waiter's context is done, so the manager's pump skips it from here on.
func (r *resource) flush() {
	for _, p := range r.parked {
		p.drained = true
		p.cancel()
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
// acquires are flushed, and in-flight grants are
// given until ctx expires to land their releases. Grants still live
// at the deadline are revoked in (deadline, grant) order — matching
// live.Engine.Run's drain semantics — and the firing order is returned
// so tests can assert it. Bookings still open are forfeited, so no
// timer outlives the daemon. Idempotent (a second call finds nothing
// left to revoke); safe to call while operations are in flight.
func (s *Server) Shutdown(ctx context.Context) []DrainRecord {
	s.host.Lock()
	s.draining = true
	for _, r := range s.order {
		r.flush()
	}
	s.host.Unlock()

	// Wait for in-flight grants to drain (their releases and watchdogs
	// still run), polling on the wall clock.
	for s.outstanding() > 0 && ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
	}

	s.host.Lock()
	defer s.host.Unlock()
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
	s.host.Lock()
	defer s.host.Unlock()
	for _, r := range s.order {
		tot += r.mgr.Outstanding()
	}
	return tot
}

// maxWindowNS bounds every duration a request carries. The daemon
// clock is int64 nanoseconds; a span of 73 years is a malformed
// request, and refusing it keeps now+span (and a reservation's
// now+start+tenure) from wrapping.
const maxWindowNS = math.MaxInt64 / 4

// on runs fn on the named resource with the host's lock held: the
// operations' one lookup. newWork is refused while the daemon drains.
func on[Rep any](s *Server, name string, newWork bool, fn func(r *resource) (Rep, *ErrorReply)) (Rep, *ErrorReply) {
	s.host.Lock()
	defer s.host.Unlock()
	r := s.res[name]
	var none Rep
	switch {
	case newWork && s.draining:
		return none, &ErrorReply{Code: CodeDraining, Message: "daemon draining"}
	case r == nil:
		return none, &ErrorReply{Code: CodeUnknown, Message: "no such resource: " + name}
	}
	return fn(r)
}

// Probe is carrier sense on the named resource.
func (s *Server) Probe(name string) (*ProbeReply, *ErrorReply) {
	return on(s, name, false, func(r *resource) (*ProbeReply, *ErrorReply) {
		sense := r.mgr.Sense()
		return &ProbeReply{
			Resource: r.cfg.Name,
			Capacity: sense.Capacity,
			InUse:    sense.InUse,
			Free:     max(sense.Free(), 0),
			Queue:    r.mgr.QueueLen(),
			Draining: s.draining,
		}, nil
	})
}

// busy is the refusal of an acquire with how far over the free units
// it is — at least 1: a queue that may not be jumped is busy even when
// units are free.
func (r *resource) busy(units int64, msg string) *ErrorReply {
	return &ErrorReply{Code: CodeBusy, Message: msg, Shortfall: max(units-max(r.mgr.Sense().Free(), 0), 1)}
}

// Acquire leases units. It is the one operation that can park: a long
// poll that has to queue parks p, the caller (the monitor for an HTTP
// request, or a simulator process), until it is granted, its wait runs
// out, ctx ends, or a drain flushes it.
func (s *Server) Acquire(p lease.Parker, ctx context.Context, ar AcquireRequest) (*LeaseReply, *ErrorReply) {
	switch {
	case ar.Units <= 0:
		return nil, &ErrorReply{Code: CodeBadRequest, Message: "units must be positive"}
	case max(ar.QuantumNS, ar.WaitNS) > maxWindowNS:
		return nil, &ErrorReply{Code: CodeBadRequest, Message: "quantum and wait must be under 73 years"}
	}
	return on(s, ar.Resource, true, func(r *resource) (*LeaseReply, *ErrorReply) {
		quantum := r.cfg.Quantum
		if ar.QuantumNS > 0 {
			quantum = time.Duration(ar.QuantumNS)
		}
		if ar.WaitNS <= 0 || ar.Units > r.mgr.Sense().Capacity || p == nil {
			// EMFILE: an immediate verdict. The FIFO queue may not be
			// jumped, so a non-empty queue is busy even with free units.
			// An acquire that can never fit gets one too, however long
			// it would wait: parked, it would hold the queue's head. So
			// does one with nothing to park (NewServerOn's codec).
			l, ok := r.mgr.TryAcquireFor(nil, context.Background(), ar.Holder, ar.Units, quantum)
			if !ok {
				return nil, r.busy(ar.Units, "no free units")
			}
			return r.admit(l, nil, quantum, 0), nil
		}
		// The long poll: granted at once if the units are free and nobody
		// is queued, else parked FIFO until a release or revocation pumps
		// the queue, WaitNS runs out, ctx ends, or a drain flushes it. Its contexts and timer are the host's.
		ctx, cancel := s.host.WithCancel(ctx)
		defer cancel()
		expiry := s.host.Schedule(time.Duration(ar.WaitNS), cancel)
		defer expiry.Cancel()
		w := &parked{Parker: p, r: r, cancel: cancel}
		l, err := r.mgr.AcquireFor(w, ctx, ar.Holder, ar.Units, quantum)
		if w.drained {
			if err == nil {
				// The pump admitted this waiter, then the drain took the
				// lock before it woke: the drain covers its grant.
				l.Revoke()
			}
			return nil, &ErrorReply{Code: CodeDraining, Message: "parked acquire failed"}
		}
		if err != nil {
			return nil, r.busy(ar.Units, "wait expired")
		}
		return r.admit(l, nil, quantum, w.seq), nil
	})
}

// stale is the fenced verdict on an operation whose tenure already
// ended (or never existed): the typed error core.ErrStale crosses the
// socket as.
func (r *resource) stale(epoch uint64) *ErrorReply {
	return &ErrorReply{Code: CodeStale, Message: "lease fenced", Epoch: epoch, Fence: r.mgr.Fence()}
}

// Release returns a lease.
func (s *Server) Release(rr ReleaseRequest) (struct{}, *ErrorReply) {
	return on(s, rr.Resource, false, func(r *resource) (struct{}, *ErrorReply) {
		h, live := r.leases[rr.LeaseID]
		switch {
		case live && h.l.Epoch() == rr.Epoch:
			delete(r.leases, rr.LeaseID)
			if h.resv != nil {
				h.resv.Release()
			} else {
				h.l.Release()
			}
		case r.mgr.Late(max(rr.Units, 0)):
			return struct{}{}, r.stale(rr.Epoch)
		default:
			// The unfenced manager applied what arrived: a duplicated or
			// late release double-frees, corrupting InUse low. This is the
			// ablation arm — the measured hazard, not a bug.
			r.doubleFrees++
		}
		r.releases++
		return struct{}{}, nil
	})
}

// Renew extends a lease's tenure.
func (s *Server) Renew(rn RenewRequest) (*RenewReply, *ErrorReply) {
	if rn.ForNS > maxWindowNS {
		return nil, &ErrorReply{Code: CodeBadRequest, Message: "for_ns must be under 73 years"}
	}
	return on(s, rn.Resource, false, func(r *resource) (*RenewReply, *ErrorReply) {
		h, live := r.leases[rn.LeaseID]
		live = live && h.l.Epoch() == rn.Epoch
		d := time.Duration(rn.ForNS)
		switch {
		case !live:
		case h.resv != nil:
			if d <= 0 {
				d = math.MaxInt64 // a claim's default is the rest of its window
			}
			// False in the instant between the window's end and the
			// watchdog that is about to revoke the claim.
			live = h.resv.Renew(d)
		case d > 0:
			h.l.RenewFor(d)
		default:
			h.l.Renew()
		}
		if !live {
			// Nothing to extend. Unfenced there is no fence to say so
			// either: the server shrugs — the delayed-renew hazard.
			if r.mgr.Late(0) {
				return nil, r.stale(rn.Epoch)
			}
			return &RenewReply{}, nil
		}
		deadline, _ := h.l.Deadline()
		return &RenewReply{DeadlineNS: int64(deadline)}, nil
	})
}

// Reserve books an admission window.
func (s *Server) Reserve(rr ReserveRequest) (*ReserveReply, *ErrorReply) {
	// The book panics on a non-positive request: that would be our bug,
	// so what a client can cause is refused here.
	if rr.Units <= 0 || rr.TenureNS <= 0 || max(rr.TenureNS, rr.StartNS) > maxWindowNS {
		return nil, &ErrorReply{Code: CodeBadRequest, Message: "units and tenure must be positive, start and tenure under 73 years"}
	}
	return on(s, rr.Resource, true, func(r *resource) (*ReserveReply, *ErrorReply) {
		start := s.host.Elapsed() + time.Duration(max(rr.StartNS, 0))
		b, err := r.book.Reserve(nil, rr.Holder, start, time.Duration(rr.TenureNS), rr.Units)
		if err != nil {
			return nil, &ErrorReply{Code: CodeRejected, Message: "window over capacity", Shortfall: core.Rejection(err).Shortfall}
		}
		r.bookings[b.ID()] = b
		start, end := b.Window()
		return &ReserveReply{BookingID: b.ID(), StartNS: int64(start), EndNS: int64(end)}, nil
	})
}

// booking resolves a wire booking id that can still be claimed or
// canceled. An id the book issued but no longer holds has lapsed; one
// it never issued is unknown.
func (r *resource) booking(id uint64) (*lease.Reservation, *ErrorReply) {
	b := r.bookings[id]
	switch {
	case b == nil && 1 <= id && id <= uint64(r.book.Reserves):
		return nil, &ErrorReply{Code: CodeLapsed, Message: "booking retired"}
	case b == nil:
		return nil, &ErrorReply{Code: CodeUnknown, Message: "no such booking"}
	case b.Lease() != (lease.Lease{}):
		return nil, &ErrorReply{Code: CodeBadRequest, Message: "booking already claimed"}
	}
	return b, nil
}

// Claim converts a booking into a lease fenced at the window's end.
func (s *Server) Claim(cr ClaimRequest) (*LeaseReply, *ErrorReply) {
	return on(s, cr.Resource, false, func(r *resource) (*LeaseReply, *ErrorReply) {
		b, er := r.booking(cr.BookingID)
		if er != nil {
			return nil, er
		}
		now := s.host.Elapsed()
		// The window fences the claim: the lease's deadline is the
		// booking's end, however late inside the window the claim landed.
		l, err := b.Claim(nil, context.Background())
		switch {
		case errors.Is(err, lease.ErrNotOpen):
			return nil, &ErrorReply{Code: CodeEarly, Message: "window not open yet"}
		case err != nil:
			return nil, &ErrorReply{Code: CodeLapsed, Message: "window closed"}
		}
		_, end := b.Window()
		return r.admit(l, b, end-now, 0), nil
	})
}

// Cancel forfeits an unclaimed booking.
func (s *Server) Cancel(cr CancelRequest) (struct{}, *ErrorReply) {
	return on(s, cr.Resource, false, func(r *resource) (struct{}, *ErrorReply) {
		b, er := r.booking(cr.BookingID)
		if er == nil {
			b.Cancel()
		}
		return struct{}{}, er
	})
}

// Create creates or resizes a resource.
func (s *Server) Create(cr CreateRequest) (struct{}, *ErrorReply) {
	switch {
	case cr.Name == "" || cr.Capacity <= 0:
		return struct{}{}, &ErrorReply{Code: CodeBadRequest, Message: "name and positive capacity required"}
	case cr.QuantumNS > maxWindowNS:
		return struct{}{}, &ErrorReply{Code: CodeBadRequest, Message: "durations must be under 73 years"}
	}
	s.host.Lock()
	defer s.host.Unlock()
	if s.draining {
		return struct{}{}, &ErrorReply{Code: CodeDraining, Message: "daemon draining"}
	}
	s.createLocked(ResourceConfig{
		Name:     cr.Name,
		Capacity: cr.Capacity,
		Quantum:  time.Duration(cr.QuantumNS),
		Unfenced: cr.Unfenced,
	})
	return struct{}{}, nil
}

// Stats is the named resource's full accounting: the manager's and the
// book's ledgers plus the daemon's own counters.
func (s *Server) Stats(name string) (*StatsReply, *ErrorReply) {
	return on(s, name, false, func(r *resource) (*StatsReply, *ErrorReply) {
		m, now := r.mgr, r.srv.host.Elapsed()
		sense := m.Sense()
		st := &StatsReply{
			Resource:       r.cfg.Name,
			Capacity:       sense.Capacity,
			InUse:          sense.InUse,
			Outstanding:    m.Outstanding(),
			MaxOutstanding: r.maxOutstanding,
			Phantoms:       r.phantoms,
			DoubleFrees:    r.doubleFrees,
			Grants:         m.Acquires,
			Releases:       r.releases,
			Rejects:        m.Rejects,
			Revokes:        m.Revokes,
			Stales:         m.Stales,
			Timeouts:       m.Timeouts,
			Admits:         r.book.Reserves,
			BookRejects:    r.book.Rejects,
			Lapses:         r.book.Lapses,
			LongestWaitNS:  int64(m.LongestWait()),
			MaxWaitNS:      int64(m.MaxStarvation()),
			Draining:       r.srv.draining,
		}
		for _, c := range m.Clients() {
			hs := HolderStats{Holder: c.Holder, Grants: c.Grants, Rejects: c.Rejects, Revokes: c.Revokes, MaxWaitNS: int64(c.MaxWait)}
			if since, ok := c.Waiting(); ok {
				hs.Waiting = true
				hs.MaxWaitNS = max(hs.MaxWaitNS, int64(now-since))
			}
			st.Holders = append(st.Holders, hs)
		}
		sort.Slice(st.Holders, func(i, j int) bool { return st.Holders[i].Holder < st.Holders[j].Holder })
		return st, nil
	})
}
