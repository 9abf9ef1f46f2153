package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
)

// The three contended workloads use the same daemon the other way:
// waiting, refusing, revoking and booking. Each has one kind of
// operation, so the end-to-end metrics mean one thing per workload.
//
// gridd-park: a scripted FIFO handoff on a capacity-1 resource. The
// lease state machine, the park queue and the error replies do the work
// and the wire is constant.
//
// gridd-revoke: a holder wedges on a 2 ms tenure while another waits
// parked, so the watchdog must fire, not just arm. Where a timer that is
// cheaper to arm but coarser to fire would show its cost.
//
// gridd-reserve: the reservation rival over the socket, against the
// admission book, whose map never retires claimed bookings, so
// peakLoad's scan grows through the repetition.

const (
	parkRate     = 250 // scripted iterations/s
	parkSettle   = 500 * time.Microsecond
	parkWait     = 5 * time.Second
	parkLimitMS  = 5
	revokeRate   = 200
	revokeTenure = 2 * time.Millisecond
	revLimitMS   = 10
	// Two connections saturate at 2000 reservation jobs/s on a quiet
	// host; a quarter of that leaves room for a disturbed one.
	reserveRate = 500
	// A booking's window is long and the book deep, so only a stall of
	// a second between reserve and release can lapse one, and not even
	// the saturation loop can fill the book.
	reserveTenure   = time.Second
	reserveCapacity = 1 << 16
	resLimitMS      = 5
)

// bReply is what connection B reports back to the script on A.
type bReply struct {
	lease *griddclient.Lease
	at    time.Time // when B's parked acquire returned
	err   error
}

// grantOrder collects every grant of a phase for the FIFO proof.
type grantOrder struct{ grantSeq, waiterSeq []uint64 }

func (g *grantOrder) add(l *griddclient.Lease) {
	g.grantSeq = append(g.grantSeq, l.GrantSeq)
	g.waiterSeq = append(g.waiterSeq, l.WaiterSeq)
}

// check proves FIFO from outside the socket: in grant order, the
// parked grants' queue positions must increase.
func (g *grantOrder) check() error {
	idx := make([]int, len(g.grantSeq))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return g.grantSeq[idx[a]] < g.grantSeq[idx[b]] })
	var last uint64
	for _, i := range idx {
		ws := g.waiterSeq[i]
		if ws == 0 {
			continue
		}
		if ws <= last {
			return fmt.Errorf("FIFO broken: grant %d has queue position %d after %d", g.grantSeq[i], ws, last)
		}
		last = ws
	}
	return nil
}

// scripted runs n paced iterations of a two-connection script. step
// runs on A's goroutine; it sends on goB to let B run bSide once, and
// reads B's reply. It returns the operation's duration, or ok=false
// when B was granted without having parked (a miss, not a failure).
func scripted(ctx context.Context, s *session, n int, pace time.Duration,
	bSide func(ctx context.Context, b *worker, parking chan<- struct{}) bReply,
	step func(ctx context.Context, a *worker, goB chan<- struct{}, parking <-chan struct{}, fromB <-chan bReply, order *grantOrder) (op time.Duration, ok bool, err error),
) *phaseResult {
	a, b := s.w[0], s.w[1]
	goB := make(chan struct{})
	parking := make(chan struct{})
	fromB := make(chan bReply)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range goB {
			root := b.rec.begin("job")
			r := bSide(ctx, b, parking)
			b.rec.end(root)
			fromB <- r
		}
	}()
	pr := &phaseResult{attempted: int64(n)}
	order := &grantOrder{}
	start := time.Now()
	for i := 0; i < n; i++ {
		if wait := time.Duration(i)*pace - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if a.rec != nil {
			a.rec.job, b.rec.job = int32(i), int32(i)
		}
		root := a.rec.begin("job")
		op, ok, err := step(ctx, a, goB, parking, fromB, order)
		a.rec.end(root)
		switch {
		case err != nil:
			pr.failed++
			if pr.firstErr == nil {
				pr.firstErr = fmt.Errorf("iteration %d: %w", i, err)
			}
		case !ok:
			pr.missed++
		default:
			pr.lat = append(pr.lat, ms(op))
		}
	}
	close(goB)
	<-done
	sort.Float64s(pr.lat)
	if err := order.check(); err != nil {
		pr.problems = append(pr.problems, err.Error())
	}
	return pr
}

// call wraps one griddclient call in a span.
func call[T any](w *worker, name string, f func() (T, error)) (T, error) {
	id := w.rec.begin(name)
	v, err := f()
	w.rec.end(id)
	return v, err
}

func release(ctx context.Context, w *worker, name string, l *griddclient.Lease) error {
	_, err := call(w, name, func() (struct{}, error) { return struct{}{}, l.Release(ctx) })
	return err
}

// parkWorkload: A holds lane; B senses it busy, is refused, parks; A
// releases; the operation is the handoff, A's release sent -> B's
// grant received.
func parkWorkload() *griddWorkload {
	const lane = "lane"
	bSide := func(ctx context.Context, b *worker, parking chan<- struct{}) bReply {
		pr, err := call(b, "griddclient.Probe", func() (gridd.ProbeReply, error) { return b.cli.Probe(ctx, lane) })
		if err == nil && pr.Free != 0 {
			err = fmt.Errorf("probe saw %d free units of a held lane", pr.Free)
		}
		if err == nil {
			_, err = call(b, "griddclient.Acquire.busy", func() (*griddclient.Lease, error) {
				return b.cli.Acquire(ctx, gridd.AcquireRequest{Resource: lane, Holder: "b", Units: 1})
			})
			if errors.Is(err, griddclient.ErrBusy) {
				err = nil
			} else {
				err = fmt.Errorf("immediate acquire of a held lane: got %v, want ErrBusy", err)
			}
		}
		parking <- struct{}{}
		if err != nil {
			return bReply{err: err}
		}
		l, err := call(b, "griddclient.Acquire.park", func() (*griddclient.Lease, error) {
			return b.cli.Acquire(ctx, gridd.AcquireRequest{Resource: lane, Holder: "b", Units: 1, WaitNS: int64(parkWait)})
		})
		r := bReply{lease: l, at: time.Now(), err: err}
		if err == nil {
			r.err = release(ctx, b, "griddclient.Release", l)
		}
		return r
	}
	step := func(ctx context.Context, a *worker, goB chan<- struct{}, parking <-chan struct{}, fromB <-chan bReply, order *grantOrder) (time.Duration, bool, error) {
		la, err := call(a, "griddclient.Acquire", func() (*griddclient.Lease, error) {
			return a.cli.Acquire(ctx, gridd.AcquireRequest{Resource: lane, Holder: "a", Units: 1})
		})
		if err != nil {
			return 0, false, err
		}
		order.add(la)
		goB <- struct{}{}
		<-parking
		time.Sleep(parkSettle) // let B's long poll reach the queue
		t0 := time.Now()
		err = release(ctx, a, "griddclient.Release", la)
		r := <-fromB
		if err == nil {
			err = r.err
		}
		if err != nil {
			return 0, false, err
		}
		order.add(r.lease)
		return r.at.Sub(t0), r.lease.WaiterSeq > 0, nil
	}
	return &griddWorkload{
		res:     []string{lane + ":1:30s"},
		limitMS: parkLimitMS,
		warm:    laneWarm(lane),
		phase: func(ctx context.Context, s *session, seed int64, d time.Duration) *phaseResult {
			return scripted(ctx, s, int(parkRate*d.Seconds()), time.Second/parkRate, bSide, step)
		},
		stages: parkStages,
	}
}

// laneWarm warms a connection with acquire+release pairs. The two
// connections warm at once on a capacity-1 resource, so it waits its
// turn in the queue.
func laneWarm(res string) func(ctx context.Context, w *worker, i int) error {
	return func(ctx context.Context, w *worker, i int) error {
		l, err := w.cli.Acquire(ctx, gridd.AcquireRequest{Resource: res, Holder: "warm", Units: 1, WaitNS: int64(parkWait)})
		if err != nil {
			return err
		}
		return l.Release(ctx)
	}
}

// revokeWorkload: A takes wedge on a 2 ms tenure and sits on it; B
// parks; the watchdog revokes A and grants B. The operation is the
// turnaround, A's grant received -> B's grant received, so it is the
// tenure plus however late and slow the revocation was. A's release,
// sent afterwards, must come back core.ErrStale.
func revokeWorkload() *griddWorkload {
	const wedge = "wedge"
	bSide := func(ctx context.Context, b *worker, _ chan<- struct{}) bReply {
		l, err := call(b, "griddclient.Acquire.park", func() (*griddclient.Lease, error) {
			return b.cli.Acquire(ctx, gridd.AcquireRequest{Resource: wedge, Holder: "b", Units: 1, WaitNS: int64(parkWait)})
		})
		r := bReply{lease: l, at: time.Now(), err: err}
		if err == nil {
			r.err = release(ctx, b, "griddclient.Release", l)
		}
		return r
	}
	step := func(ctx context.Context, a *worker, goB chan<- struct{}, _ <-chan struct{}, fromB <-chan bReply, order *grantOrder) (time.Duration, bool, error) {
		la, err := call(a, "griddclient.Acquire", func() (*griddclient.Lease, error) {
			return a.cli.Acquire(ctx, gridd.AcquireRequest{Resource: wedge, Holder: "a", Units: 1, QuantumNS: int64(revokeTenure)})
		})
		if err != nil {
			return 0, false, err
		}
		tA := time.Now()
		order.add(la)
		goB <- struct{}{}
		r := <-fromB
		err = release(ctx, a, "griddclient.Release.stale", la)
		switch {
		case r.err != nil:
			return 0, false, r.err
		case !errors.Is(err, core.ErrStale):
			return 0, false, fmt.Errorf("release of a revoked lease: got %v, want ErrStale", err)
		}
		order.add(r.lease)
		return r.at.Sub(tA), r.lease.WaiterSeq > 0, nil
	}
	return &griddWorkload{
		res:     []string{wedge + ":1:30s"},
		limitMS: revLimitMS,
		warm:    laneWarm(wedge),
		phase: func(ctx context.Context, s *session, seed int64, d time.Duration) *phaseResult {
			return scripted(ctx, s, int(revokeRate*d.Seconds()), time.Second/revokeRate, bSide, step)
		},
		stages: revokeStages,
	}
}

// reserveWorkload: reserve a window starting now, claim it, release.
func reserveWorkload(seed int64) *griddWorkload {
	const book = "book"
	job := func(holder []uint8) func(ctx context.Context, w *worker, i int) error {
		return func(ctx context.Context, w *worker, i int) error {
			rr, err := call(w, "griddclient.Reserve", func() (gridd.ReserveReply, error) {
				return w.cli.Reserve(ctx, gridd.ReserveRequest{
					Resource: book, Holder: holderNames[holder[i%len(holder)]], Units: 1, TenureNS: int64(reserveTenure),
				})
			})
			if err != nil {
				return err
			}
			l, err := call(w, "griddclient.Claim", func() (*griddclient.Lease, error) {
				return w.cli.Claim(ctx, gridd.ClaimRequest{Resource: book, BookingID: rr.BookingID})
			})
			if err != nil {
				return err
			}
			return release(ctx, w, "griddclient.Release", l)
		}
	}
	warm := job(picks(seed, 1<<12, fastHolders))
	return &griddWorkload{
		res:     []string{fmt.Sprintf("%s:%d:30s", book, reserveCapacity)},
		limitMS: resLimitMS,
		warm:    warm,
		job:     warm,
		phase: func(ctx context.Context, s *session, seed int64, d time.Duration) *phaseResult {
			n := int(reserveRate * d.Seconds())
			return openPhase(ctx, s, arrivals(seed, reserveRate, n), job(picks(seed+1, n, fastHolders)))
		},
		stages: reserveStages,
	}
}

func runPark(e *env, traced bool) (*outcome, error)   { return runGridd(e, traced, parkWorkload()) }
func runRevoke(e *env, traced bool) (*outcome, error) { return runGridd(e, traced, revokeWorkload()) }
func runReserve(e *env, traced bool) (*outcome, error) {
	return runGridd(e, traced, reserveWorkload(e.seed))
}
