package replica

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

// bytesTime is the ideal transfer time for size bytes at bandwidth
// bytes/second — the same arithmetic fetch uses.
func bytesTime(size, bandwidth int64) time.Duration {
	return time.Duration(float64(size) / float64(bandwidth) * float64(time.Second))
}

// This file is the data-transfer scenario's fourth-discipline client:
// instead of queueing on a server's lane (and possibly feeding the
// black hole for a 60-second timeout), a reserving reader books the
// lane for a transfer-sized window on a per-server admission book. A
// full book refuses outright — the reader moves to the next replica
// without having touched this one — and a claimed window is enforced
// by the lease watchdog at the window boundary, so a black hole costs
// exactly one booked window, never more.

// NewBooks builds one single-lane admission book per server, the
// reservation reader's view of the replica set. Books and organic lane
// queueing must not be mixed on one server: the book's admission
// accounting is only sound if every client goes through it.
func NewBooks(e core.Backend, servers []*Server) []*lease.Book {
	books := make([]*lease.Book, len(servers))
	for i, srv := range servers {
		books[i] = lease.NewBook(e, srv.Name, 1)
	}
	return books
}

// FetchDataReserved downloads the payload under an admitted claim on
// this server's lane book. There is no lane queueing — the window is
// already the holder's — so the only ways to lose are the black hole,
// injected faults, and the window's own boundary.
func (s *Server) FetchDataReserved(p core.Proc, ctx context.Context, claim lease.Lease) error {
	if err := p.Sleep(ctx, s.cfg.ConnectTime); err != nil {
		return err
	}
	// Work under the claim: the watchdog at the window boundary unwinds
	// a wedged transfer. There is no renewal — tenure never outlives
	// the booking.
	lctx := claim.Ctx()
	if s.BlackHole {
		s.Absorbed++
		return s.holdErr(ctx, claim, p.Hang(lctx))
	}
	if f := core.InjectAt(s.inj, InjectHold); f.Hang {
		p.Tracer().FaultInjected(InjectHold)
		s.Absorbed++
		return s.holdErr(ctx, claim, p.Hang(lctx))
	}
	d := bytesTime(s.cfg.FileSize, s.cfg.Bandwidth)
	if f := core.InjectAt(s.inj, InjectFetch); !f.Zero() {
		p.Tracer().FaultInjected(InjectFetch)
		d += f.Delay
		if f.Err != nil {
			if err := p.Sleep(lctx, d/2); err != nil {
				return s.holdErr(ctx, claim, err)
			}
			return core.Collision(s.Name, f.Err)
		}
	}
	if err := s.holdErr(ctx, claim, p.Sleep(lctx, d)); err != nil {
		return err
	}
	s.Transfers++
	return nil
}

// ReadOnceReserved performs one work unit with the Reservation
// discipline: walk the (shuffled) replica set, book a transfer window
// on the first server whose book admits us, and fetch under the claim.
// Rejections are cheap (nothing was consumed); a black-holed claim
// costs its booked window.
func (r *Reader) ReadOnceReserved(p core.Proc, ctx context.Context, servers []*Server, books []*lease.Book, cfg ReaderConfig) error {
	tr := cfg.Trace
	type station struct {
		srv  *Server
		book *lease.Book
	}
	stations := make([]station, len(servers))
	for i := range servers {
		stations[i] = station{srv: servers[i], book: books[i]}
	}
	outer := core.TryConfig{Trace: tr, Span: "read", Site: "server", SpanOnly: true}
	return core.Try(ctx, p, core.For(cfg.OuterLimit), outer, func(ctx context.Context) error {
		_, err := core.Forany(ctx, p, stations, true, func(ctx context.Context, st station) error {
			tr.Attempt()
			// Book the lane for one transfer-sized window starting now.
			// DataTimeout is the worst case the Aloha reader tolerates,
			// so it is also the honest window to promise.
			res, rerr := st.book.Reserve(p, p.Name(), p.Elapsed(), cfg.DataTimeout, 1)
			if rerr != nil {
				r.Rejections++
				tr.Reject(st.srv.Name, core.Rejection(rerr).Shortfall)
				return rerr
			}
			claim, cerr := res.Claim(p, ctx)
			if cerr != nil {
				// Unreachable for a window starting now, but a booking
				// must never leak.
				res.Cancel()
				return core.Collision(st.srv.Name, cerr)
			}
			derr := st.srv.FetchDataReserved(p, ctx, claim)
			res.Release()
			if derr != nil {
				if ctx.Err() != nil {
					tr.Failure() // cut short by the outer budget: wasted work
					return ctx.Err()
				}
				r.Collisions++
				tr.Collision(st.srv.Name)
				return core.Collision(st.srv.Name, derr)
			}
			r.Done++
			tr.Success()
			return nil
		})
		return err
	})
}

// LoopReserved repeats ReadOnceReserved until ctx is canceled.
func (r *Reader) LoopReserved(p core.Proc, ctx context.Context, servers []*Server, books []*lease.Book, cfg ReaderConfig) {
	p.SetTracer(cfg.Trace)
	for ctx.Err() == nil {
		_ = r.ReadOnceReserved(p, ctx, servers, books, cfg)
	}
}
