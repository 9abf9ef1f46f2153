package condor

import (
	"context"

	"repro/internal/core"
	"repro/internal/lease"
)

// This file is the submit scenario's fourth-discipline client: instead
// of optimistically allocating descriptors and colliding (Fixed/Aloha)
// or sensing the carrier first (Ethernet), a reserving submitter books
// a worst-case descriptor window on an admission book up front. A full
// book refuses the request outright — a typed rejection, detected
// *before* any descriptors are consumed — and an admitted window is a
// promise the schedd enforces with the claim lease's watchdog, so even
// a black-holed client returns its descriptors at the window boundary.
//
// The descriptors themselves come out of the book's capacity, which is
// provisioned as a slice of the machine's FD table: admission control
// only works if the book's capacity is not also being drained behind
// its back, so a reservation cell gives clients the book and leaves
// the table's remainder to the schedd and its housekeeping.

// SubmitReserved performs one submission attempt from p under an
// admitted, claimed reservation. The client-side allocation races of
// Submit are skipped — the claim's units are the descriptors, counted
// by the book when the window was admitted — but the schedd side is
// unchanged: schedd FDs, the crash broadcast, service slots, and the
// chaos seams all still apply. claim is the lease returned by
// Reservation.Claim; its watchdog is armed at the window boundary, so
// there is nothing to renew.
func (s *Schedd) SubmitReserved(p core.Proc, ctx context.Context, claim lease.Lease) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	outer := ctx
	tr := p.Tracer()
	// Chaos seam: the connection can be slowed or refused here exactly
	// as in Submit — admission control does not bypass the network.
	if f := core.InjectAt(s.inj, InjectConnect); !f.Zero() {
		tr.FaultInjected(InjectConnect)
		if f.Delay > 0 {
			if err := p.Sleep(ctx, f.Delay); err != nil {
				return err
			}
		}
		if f.Err != nil {
			if err := p.Sleep(ctx, s.cfg.ConnectFailTime); err != nil {
				return err
			}
			return core.Collision("schedd", f.Err)
		}
	}
	// Work under the claim from here on: when the booked window ends,
	// the watchdog unwinds everything downstream.
	ctx = claim.Ctx()
	if err := p.Sleep(ctx, s.cfg.SetupTime); err != nil {
		return s.submitErr(outer, lease.Lease{}, claim)
	}
	// Chaos seam: a stuck-holder plan black-holes the client while it
	// holds its booked window. The window-boundary watchdog is the only
	// thing that frees the book again — and until it fires, the booked
	// capacity is dead. This is the collapse mode FigRes measures.
	if f := core.InjectAt(s.inj, InjectHold); f.Hang {
		tr.FaultInjected(InjectHold)
		_ = p.Hang(ctx)
		return s.submitErr(outer, lease.Lease{}, claim)
	}
	return s.serve(p, ctx, outer, func() {}, claim)
}

// ReserveLoop runs the submitter until ctx is canceled: an endless
// sequence of jobs, each booked on book before it touches the schedd.
// Every booking asks for the worst-case descriptor count — output
// sizes and file counts are unknown before the job runs, the same
// argument §5 makes against storage reservation — so the book admits
// strictly fewer clients than optimistic disciplines would attempt.
// It reads cfg's TryLimit, Window, ThinkTime, Backoff and Trace; a
// rejection consumed nothing, so Backoff paces retries to shed load.
func (sub *Submitter) ReserveLoop(p core.Proc, ctx context.Context, cl *Cluster, book *lease.Book, cfg SubmitterConfig) {
	p.SetTracer(cfg.Trace)
	// The worst case a submission can pin on the client side.
	units := int64(cl.Cfg.ClientFDs + cl.Cfg.ClientFDJitter)
	client := &core.Client{
		Rt:         p,
		Discipline: core.Reservation,
		Limit:      core.For(cfg.TryLimit),
		Backoff:    cfg.Backoff,
		Trace:      cfg.Trace,
		Site:       book.Name(),
		Span:       "submit",
	}
	for ctx.Err() == nil {
		err := client.Do(ctx, func(ctx context.Context) error {
			r, rerr := book.Reserve(p, p.Name(), p.Elapsed(), cfg.Window, units)
			if rerr != nil {
				return rerr // typed rejection: the book is full over the window
			}
			claim, cerr := r.Claim(p, ctx)
			if cerr != nil {
				// Unreachable for a window starting now, but a booking
				// must never leak.
				r.Cancel()
				return core.Collision(book.Name(), cerr)
			}
			defer r.Release()
			return cl.Schedd.SubmitReserved(p, ctx, claim)
		})
		switch {
		case err == nil:
			sub.Submitted++
			if cfg.ThinkTime > 0 {
				if p.Sleep(ctx, cfg.ThinkTime) != nil {
					return
				}
			}
		case ctx.Err() != nil:
			return
		default:
			sub.Exhausted++
		}
	}
}
