package fsbuffer

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

// This file implements the alternative §5 discusses and argues against:
// "a mechanism for allocating storage space independently of data
// transfer, such as that found in NeST, SRB, and SRM". A reserving
// producer asks an allocation server for space before writing, which
// eliminates ENOSPC collisions entirely — but, exactly as the paper
// observes, "it is [not] clear what allocation policy would be
// appropriate when output sizes are not known. Further, the actual
// process of allocation itself may be subject to contention."
//
// Because output size is unknown before the job runs, the reserving
// producer must ask for the worst case (MaxFileSize) and return the
// unused remainder only after the write completes. The slack between
// reserved and actual bytes idles buffer capacity, so reservation trades
// collisions for throughput — the quantitative form of the paper's
// argument. gridbench -fig ext measures the trade.

// ErrReservationDenied reports that the allocator had no space.
var ErrReservationDenied = errors.New("allocation denied: no reservable space")

// InjectHold is the injection site covering the window where a client
// holds granted-but-unwritten space: an injected Hang wedges the
// client after its grant, promised space pinned forever — unless the
// lease watchdog reclaims it.
const InjectHold = "fsbuffer/hold"

// InjectNet is the injection site covering the channel to the
// allocation service: reservation requests and lease-control messages
// (release, renew) cross it, and may be dropped, duplicated, or
// delayed (see lease.Manager.SetWire).
const InjectNet = "fsbuffer/net"

// Allocator is a NeST/SRM-style space reservation service in front of a
// Buffer. Reservations are bookkeeping only; the underlying buffer is
// unchanged, so reserving and non-reserving producers can be mixed.
// Granted space is held as a lease, so a tenure quantum (see
// SetLeaseQuantum) bounds how long a client may sit on a promise
// without writing.
type Allocator struct {
	buf    *Buffer
	tenure *lease.Manager
	inj    core.Injector
	// GrantTime models the allocation round trip; the allocation
	// service is itself a shared resource and serializes requests.
	GrantTime time.Duration
	lane      *lease.Manager

	// Grants and Denials count allocator outcomes; NetDrops counts
	// reservation requests the channel swallowed.
	Grants, Denials, NetDrops int64
}

// NewAllocator wraps buf with a reservation service.
func NewAllocator(e core.Backend, buf *Buffer, grantTime time.Duration) *Allocator {
	if grantTime <= 0 {
		grantTime = 10 * time.Millisecond
	}
	return &Allocator{
		buf:       buf,
		tenure:    lease.New(e, "reservation", buf.Free(), 0),
		GrantTime: grantTime,
		lane:      lease.New(e, "allocator", 1, 0),
	}
}

// SetLeaseQuantum bounds reservation tenure: a client that holds
// promised space longer than d without renewing (writing renews on
// completion by ending the reservation) is revoked and the space
// reclaimed. Zero (the default) restores unlimited tenure.
func (a *Allocator) SetLeaseQuantum(d time.Duration) { a.tenure.SetQuantum(d) }

// SetInjector installs a fault injector consulted at the allocator's
// hold site, and routes the tenure manager's lease-control messages
// through it at InjectNet, fenced. A nil injector (the default)
// disables injection and removes the wire.
func (a *Allocator) SetInjector(inj core.Injector) {
	a.inj = inj
	a.tenure.SetWire(inj, InjectNet, true)
}

// Reserved reports bytes currently promised to clients.
func (a *Allocator) Reserved() int64 { return a.tenure.Sense().InUse }

// Tenure exposes the underlying lease manager for fairness accounting.
func (a *Allocator) Tenure() *lease.Manager { return a.tenure }

// Reserve requests size bytes, waiting in the allocator's queue. On
// success the caller holds the reservation, a lease on size bytes of
// future buffer space, and must Release it. The lease's context is a
// child of ctx, canceled if the watchdog revokes the reservation.
func (a *Allocator) Reserve(p core.Proc, ctx context.Context, size int64) (lease.Lease, error) {
	res, err := a.reserve(p, ctx, size)
	if err != nil {
		return lease.Lease{}, err
	}
	// Chaos seam: a stuck-holder plan wedges the client right after its
	// grant — space promised, nothing ever written. Only the caller's
	// own deadline or the lease watchdog frees the promise again.
	if f := core.InjectAt(a.inj, InjectHold); f.Hang {
		p.Tracer().FaultInjected(InjectHold)
		_ = p.Hang(res.Ctx())
		if cerr := ctx.Err(); cerr != nil {
			res.Release()
			return lease.Lease{}, cerr
		}
		return lease.Lease{}, core.Collision("reservation", lease.ErrRevoked)
	}
	return res, nil
}

// reserve is the admission path: serialize on the allocation service,
// pay the round trip, then grant tenure on the promised bytes.
func (a *Allocator) reserve(p core.Proc, ctx context.Context, size int64) (lease.Lease, error) {
	// Chaos seam: the request crosses the channel to the allocation
	// service before anything else. A drop is indistinguishable from a
	// slow server — the client pays the round trip and learns nothing.
	if f := core.InjectAt(a.inj, InjectNet); !f.Zero() {
		if f.Delay > 0 {
			if err := p.Sleep(ctx, f.Delay); err != nil {
				return lease.Lease{}, err
			}
		}
		if f.Drop || f.Err != nil {
			p.Tracer().MsgDrop("reservation")
			a.NetDrops++
			if err := p.Sleep(ctx, a.GrantTime); err != nil {
				return lease.Lease{}, err
			}
			return lease.Lease{}, core.Collision("net", core.ErrLost)
		}
	}
	if err := a.lane.Take(p, ctx, 1); err != nil {
		return lease.Lease{}, err
	}
	defer a.lane.Put(1)
	if err := p.Sleep(ctx, a.GrantTime); err != nil {
		return lease.Lease{}, err
	}
	// Grant only space not already promised: reservations must never
	// overcommit, or they would be no better than optimistic writing.
	// A denial is a typed rejection carrying the shortfall, so clients
	// and the trace grammar can tell "the book was full" (nothing was
	// consumed) from a collision discovered after the fact.
	if unres := a.buf.Free() - a.Reserved(); unres < size {
		a.Denials++
		return lease.Lease{}, fmt.Errorf("%w: %w", ErrReservationDenied, core.Rejected("reservation", size-unres))
	}
	a.Grants++
	return a.tenure.Grant(p, ctx, p.Name(), size), nil
}

// ReservingProducer is the baseline client: reserve worst-case space,
// then write without fear of ENOSPC.
type ReservingProducer struct {
	// Wrote counts completed files; Denied counts files dropped because
	// the allocator had no space within the retry budget; Revoked
	// counts reservations the lease watchdog reclaimed mid-write.
	Wrote, Denied, Revoked int64
}

// Loop produces files until ctx is canceled. Each file first obtains a
// worst-case reservation (retrying with Aloha-style backoff on denial —
// the allocation service gives a clean failure signal, so carrier
// sense adds nothing), then writes under its protection. The
// cfg.Discipline field is ignored: this producer *is* the Reservation
// discipline.
func (rp *ReservingProducer) Loop(p core.Proc, ctx context.Context, a *Allocator, id int, cfg ProducerConfig) {
	p.SetTracer(cfg.Trace)
	client := &core.Client{
		Rt:         p,
		Discipline: core.Reservation,
		Limit:      core.For(cfg.TryLimit),
		Trace:      cfg.Trace,
		Site:       "reservation",
		Span:       "write",
	}
	seq := 0
	for ctx.Err() == nil {
		size := int64(p.Rand() * float64(cfg.MaxFileSize))
		if size < 1 {
			size = 1
		}
		seq++
		name := fmt.Sprintf("r%d-%d", id, seq)
		var res lease.Lease
		err := client.Do(ctx, func(ctx context.Context) error {
			var rerr error
			// Output size is unknown before the job runs: reserve the
			// worst case.
			res, rerr = a.Reserve(p, ctx, cfg.MaxFileSize)
			return rerr
		})
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			rp.Denied++
		} else {
			werr := a.buf.Write(p, ctx, name, size)
			if res.Revoked() {
				// The watchdog reclaimed the promise mid-write: the
				// write itself carried on optimistically, but the
				// space guarantee was gone.
				rp.Revoked++
			}
			res.Release()
			if werr == nil {
				rp.Wrote++
			} else if ctx.Err() != nil {
				return
			}
		}
		if cfg.Interval > 0 {
			if p.Sleep(ctx, cfg.Interval) != nil {
				return
			}
		}
	}
}
