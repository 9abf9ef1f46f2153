package lease

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Book is an advance-booking reservation book over a capacity of
// units: the fourth discipline's admission controller. Where the
// Manager arbitrates *now* (take units or park in the FIFO queue), the
// Book arbitrates a *window* — a client asks for units over
// [start, start+tenure) and is admitted or refused outright, with no
// queue and no retry inside the book. A refusal is a typed
// core.RejectedError carrying the shortfall, so clients (and the trace
// grammar) can tell "the book was full" from "the resource was busy".
//
// Admission is no-overlap accounting: a request is granted iff the
// peak of already-booked units over the requested window, plus the
// request, never exceeds capacity. Among requests for the same window
// admission is FIFO by construction: Reserve is synchronous under the
// engine token, so requests are considered strictly in arrival order.
//
// A booked window is a promise, and promises are enforced server-side:
// claiming a window mints a Lease (from an embedded tenure Manager)
// whose expiry watchdog fires exactly at the window's end, so a
// black-hole holder can wedge the book for at most the remainder of
// its own window — never past it. The flip side is deliberate: until
// that window ends, the booked capacity is held even if the holder is
// dead. The FigRes sweep measures exactly this trade.
type Book struct {
	name   string
	tenure *Manager // clock, capacity, claim leases; quantum 0 (tenure set per claim)
	// onRetire is told of each booking that leaves the book; see
	// OnRetire.
	onRetire func(*Reservation)

	resv []*Reservation // live bookings in admission order

	// Stats, readable at any point under the engine token; Observe
	// exports them.
	Reserves int64 // bookings admitted
	Rejects  int64 // bookings refused (book full over the window)
	Admits   int64 // booked windows claimed
	Cancels  int64 // bookings canceled before a claim
	Lapses   int64 // bookings whose window ended unclaimed
}

// ErrLapsed reports a claim on a window that ended unclaimed.
var ErrLapsed = errors.New("reservation lapsed: window ended unclaimed")

// ErrNotOpen reports a claim before the booked window's start.
var ErrNotOpen = errors.New("reservation window not open yet")

// NewBook returns a book over capacity units of the named resource.
func NewBook(e Clock, name string, capacity int64) *Book {
	return &Book{name: name, tenure: New(e, name, capacity, 0)}
}

// Family names of the book's admission ledger, as Observe registers
// them.
const (
	MBookReserves = "grid_book_reserves_total"
	MBookRejects  = "grid_book_rejects_total"
	MBookAdmits   = "grid_book_admits_total"
	MBookCancels  = "grid_book_cancels_total"
	MBookLapses   = "grid_book_lapses_total"
)

// Observe registers the book's admission ledger with sc under the
// resource label, as Manager.Observe does the manager's. The tenure
// manager is not included: its host registers it (Tenure().Observe)
// under whatever label suits.
func (b *Book) Observe(sc *obs.Scope, resource string) {
	counter(sc, resource, MBookReserves, "Bookings admitted.", &b.Reserves)
	counter(sc, resource, MBookRejects, "Bookings refused (book full over the window).", &b.Rejects)
	counter(sc, resource, MBookAdmits, "Booked windows claimed.", &b.Admits)
	counter(sc, resource, MBookCancels, "Bookings canceled before a claim.", &b.Cancels)
	counter(sc, resource, MBookLapses, "Bookings whose window ended unclaimed.", &b.Lapses)
}

// OnRetire tells fn of each booking that leaves the book — canceled,
// released, lapsed, or its claimed window ended — the Book's
// counterpart of Manager.OnRevoke. Install it before the run starts.
func (b *Book) OnRetire(fn func(*Reservation)) { b.onRetire = fn }

// Name returns the resource's diagnostic name.
func (b *Book) Name() string { return b.name }

// SetCapacity resizes the book, which is resizing its tenure manager
// (see Manager.SetCapacity). Bookings already admitted stand; a
// shrunken book refuses new windows until they drain.
func (b *Book) SetCapacity(n int64) { b.tenure.SetCapacity(n) }

// Tenure exposes the embedded tenure manager: claimed units in use,
// watchdog revocations, and the per-holder fairness ledger.
func (b *Book) Tenure() *Manager { return b.tenure }

// Outstanding reports live bookings (pending or claimed).
func (b *Book) Outstanding() int { return len(b.resv) }

// Booked returns the peak concurrently booked units over [start, end).
func (b *Book) Booked(start, end time.Duration) int64 { return b.peakOver(start, end) }

func (b *Book) now() time.Duration { return b.tenure.now() }

// peakOver computes the maximum concurrently booked units over
// [start, end). Booked intervals are step functions that only rise at
// a booking's start, so sampling the window's own start plus every
// booking start inside it finds the peak.
func (b *Book) peakOver(start, end time.Duration) int64 {
	var peak int64
	at := func(t time.Duration) {
		var sum int64
		for _, r := range b.resv {
			if r.start <= t && t < r.end {
				sum += r.units
			}
		}
		if sum > peak {
			peak = sum
		}
	}
	at(start)
	for _, r := range b.resv {
		if r.start > start && r.start < end {
			at(r.start)
		}
	}
	return peak
}

// Reserve asks for units over the window [start, start+tenure), where
// start is absolute virtual time (clamped up to now — the book does
// not backdate). On admission it returns the pending Reservation and
// emits a reserve trace event; when the book is full over the window
// it returns a *core.RejectedError carrying the shortfall. The booking
// lapses if still unclaimed when the window ends.
func (b *Book) Reserve(p Parker, holder string, start, tenure time.Duration, units int64) (*Reservation, error) {
	if units <= 0 || tenure <= 0 {
		panic("lease: reservation with non-positive units or tenure on " + b.name)
	}
	if now := b.now(); start < now {
		start = now
	}
	end := start + tenure
	// Compare without adding, as Manager.fits does: peak+units wraps for
	// a large enough request.
	if room := max(b.tenure.capacity-b.peakOver(start, end), 0); units > room {
		b.Rejects++
		b.tenure.stats(holder).Rejects++
		b.tenure.NoteWant(holder)
		return nil, core.Rejected(b.name, units-room)
	}
	b.Reserves++
	r := &Reservation{b: b, id: uint64(b.Reserves), holder: holder, units: units, start: start, end: end}
	if p != nil {
		r.tr = p.Tracer()
	}
	b.resv = append(b.resv, r)
	r.tr.Reserve(b.name, start)
	// The window-end timer retires the booking no matter how the holder
	// behaves: an unclaimed window lapses, and a claimed one is already
	// bounded by its lease's watchdog firing at the same instant.
	if eng := b.tenure.eng; eng != nil {
		r.lapse = eng.Schedule(end-b.now(), r.windowEnd)
	}
	return r, nil
}

// remove drops r from the live booking list.
func (b *Book) remove(r *Reservation) {
	for i, x := range b.resv {
		if x == r {
			b.resv = append(b.resv[:i], b.resv[i+1:]...)
			break
		}
	}
	if b.onRetire != nil {
		b.onRetire(r)
	}
}

// resState tracks a reservation through its life.
type resState int

const (
	resPending resState = iota // booked, not yet claimed
	resClaimed                 // claimed; a Lease enforces the tenure
	resDone                    // released, canceled, lapsed, or revoked
)

// Reservation is one admitted booking: units over [start, end). The
// holder claims it once the window opens, works under the claim
// lease's context, and releases when done; the unclaimed or wedged
// cases are handled by the window-end timer and the lease watchdog.
type Reservation struct {
	b      *Book
	id     uint64
	holder string
	units  int64
	start  time.Duration
	end    time.Duration
	tr     *trace.Client
	lapse  core.Timer
	state  resState
	lease  Lease // the zero Lease before Claim
}

// ID returns the booking's admission ordinal: 1 for the book's first
// admitted booking, so ids up to Book.Reserves have been issued.
func (r *Reservation) ID() uint64 { return r.id }

// Window returns the booked interval [start, end).
func (r *Reservation) Window() (start, end time.Duration) { return r.start, r.end }

// Units returns the booked units.
func (r *Reservation) Units() int64 { return r.units }

// Holder returns the holder the booking was admitted for.
func (r *Reservation) Holder() string { return r.holder }

// Claim turns the booking into a held tenure. It must be called inside
// the window: before start it fails with ErrNotOpen, after the window
// lapsed with ErrLapsed. The returned lease's watchdog fires exactly
// at the window's end, so the units come back to the book even if the
// holder never returns.
func (r *Reservation) Claim(p Parker, ctx context.Context) (Lease, error) {
	if r.state != resPending {
		return Lease{}, ErrLapsed
	}
	now := r.b.now()
	if now < r.start {
		return Lease{}, ErrNotOpen
	}
	if now >= r.end {
		// The window-end timer is due and has not run yet, which only a
		// wall clock allows. A tenure of zero would mean unlimited.
		return Lease{}, ErrLapsed
	}
	r.state = resClaimed
	r.b.Admits++
	r.tr.Admit(r.b.name, r.end)
	r.lease = r.b.tenure.GrantFor(p, ctx, r.holder, r.units, r.end-now)
	r.lease.rec().deadline = r.end // not a later clock reading plus the tenure
	return r.lease, nil
}

// Renew extends the claim lease's tenure by d from now, clamped so the
// deadline never crosses the window's end — even when the holder has a
// back-to-back booking for the next window, this window's watchdog
// stays armed at this window's boundary.
func (r *Reservation) Renew(d time.Duration) bool {
	if r.state != resClaimed {
		return false
	}
	if remain := r.end - r.b.now(); d > remain {
		d = remain
	}
	ok := r.lease.RenewFor(d)
	if l := r.lease.rec(); l.deadline > r.end {
		l.deadline = r.end // a wall clock moved between the two readings
	}
	return ok
}

// Lease returns the claim lease (the zero Lease before Claim).
func (r *Reservation) Lease() Lease { return r.lease }

// Cancel gives up a pending booking, freeing its window for others.
// Canceling a claimed or finished reservation is a no-op; use Release.
func (r *Reservation) Cancel() {
	if r.state != resPending {
		return
	}
	r.state = resDone
	r.b.Cancels++
	if r.lapse != nil {
		r.lapse.Cancel()
	}
	r.b.remove(r)
	r.tr.Forfeit(r.b.name)
}

// Release ends a claimed tenure and truncates the booking to now: the
// remainder of the window goes back to the book immediately, so honest
// holders do not pay the worst-case window they booked. Releasing a
// pending booking cancels it; double release is a no-op.
func (r *Reservation) Release() {
	switch r.state {
	case resPending:
		r.Cancel()
	case resClaimed:
		r.state = resDone
		if r.lapse != nil {
			r.lapse.Cancel()
		}
		r.b.remove(r)
		r.lease.Release()
	case resDone:
		// Under a wall clock the window-end timer can retire the booking a
		// moment before the claim lease's watchdog runs; a release landing
		// in between still ends the tenure (and is a no-op otherwise).
		r.lease.Release()
	}
}

// Revoked reports whether the claim lease was reclaimed by the
// watchdog (always false before Claim).
func (r *Reservation) Revoked() bool { return r.lease.Revoked() }

// windowEnd is the window-end timer: whatever the holder did, the
// booking is over. An unclaimed booking lapses (a forfeit); a claimed
// one's units are reclaimed by the lease watchdog firing at the same
// instant, so here the book only retires the interval.
func (r *Reservation) windowEnd() {
	switch r.state {
	case resPending:
		r.state = resDone
		r.b.Lapses++
		r.b.remove(r)
		r.tr.Forfeit(r.b.name)
	case resClaimed:
		r.state = resDone
		r.b.remove(r)
	}
}
