package expt

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/gridd"
	"repro/internal/lease"
)

// TestTypedErrorAudit is the cross-package error-contract audit: every
// typed error a substrate can hand a client — the reservation denial,
// the admission rejection, the fencing rejection — must survive
// errors.Is/errors.As round trips after crossing package boundaries and
// after being wrapped the way the substrates actually wrap them
// (core.Collision around a cause, ExhaustedError around a final retry
// failure). Each error here is produced by the real producer, not
// hand-built, so a change to any wrapping site shows up as an audit
// failure rather than as clients silently losing the ability to
// classify failures.
func TestTypedErrorAudit(t *testing.T) {
	e := Options{}.newEngine(1)
	var denial, bookErr, staleErr error
	e.Spawn("probe", func(p core.Proc) {
		ctx := e.Context()

		// fsbuffer: asking for more than the buffer holds is denied with
		// the package sentinel chained onto a core rejection.
		b := fsbuffer.New(e, fsbuffer.Config{Capacity: 100})
		alloc := fsbuffer.NewAllocator(e, b, 0)
		_, denial = alloc.Reserve(p, ctx, 150)

		// lease.Book: overbooking the admission window is a bare typed
		// rejection carrying the shortfall.
		book := lease.NewBook(e, "book", 10)
		_, bookErr = book.Reserve(p, "h", 0, time.Second, 25)

		// gridd fencing: a duplicated release reaches the daemon after
		// the tenure's epoch is retired, and the client rebuilds the
		// typed staleness from the daemon's reply.
		c := inProcess(gridd.NewServerOn(e, gridd.Config{Resources: []gridd.ResourceConfig{{Name: "fds", Capacity: 4}}}))
		l, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		if err := l.Release(ctx); err != nil {
			t.Errorf("release: %v", err)
			return
		}
		staleErr = l.Release(ctx)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{denial, bookErr, staleErr} {
		if err == nil {
			t.Fatal("a producer failed to produce its typed error")
		}
	}

	cases := []struct {
		name string
		err  error
		// sentinel matches expected (or forbidden) on the chain
		is    []error
		isNot []error
		// typed extractions expected to succeed
		rejected  bool
		stale     bool
		collision bool
	}{
		{
			name:     "fsbuffer denial",
			err:      denial,
			is:       []error{fsbuffer.ErrReservationDenied},
			isNot:    []error{core.ErrStale, core.ErrCollision},
			rejected: true,
		},
		{
			name:     "book rejection",
			err:      bookErr,
			isNot:    []error{fsbuffer.ErrReservationDenied, core.ErrStale},
			rejected: true,
		},
		{
			name:  "fencing staleness",
			err:   staleErr,
			is:    []error{core.ErrStale},
			isNot: []error{core.ErrCollision},
			stale: true,
		},
		{
			// How condor's reserving submitter surfaces a book rejection:
			// the coarse collision wrapper must not hide the typed cause.
			name:      "collision-wrapped rejection",
			err:       core.Collision("book", bookErr),
			rejected:  true,
			collision: true,
		},
		{
			// How a fenced substrate would surface a stale operation.
			name:      "collision-wrapped staleness",
			err:       core.Collision("fds", staleErr),
			is:        []error{core.ErrStale},
			stale:     true,
			collision: true,
		},
		{
			// A retry loop giving up: the last attempt's typed cause must
			// stay visible through the exhaustion wrapper.
			name:     "exhaustion-wrapped denial",
			err:      &core.ExhaustedError{Attempts: 3, Last: denial},
			is:       []error{fsbuffer.ErrReservationDenied},
			rejected: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, want := range tc.is {
				if !errors.Is(tc.err, want) {
					t.Errorf("errors.Is(%v, %v) = false, want true", tc.err, want)
				}
			}
			for _, not := range tc.isNot {
				if errors.Is(tc.err, not) {
					t.Errorf("errors.Is(%v, %v) = true, want false", tc.err, not)
				}
			}
			if got := core.IsRejected(tc.err); got != tc.rejected {
				t.Errorf("core.IsRejected = %v, want %v", got, tc.rejected)
			}
			if got := core.IsStale(tc.err); got != tc.stale {
				t.Errorf("core.IsStale = %v, want %v", got, tc.stale)
			}
			if got := core.IsCollision(tc.err); got != tc.collision {
				t.Errorf("core.IsCollision = %v, want %v", got, tc.collision)
			}
			if tc.rejected {
				re := core.Rejection(tc.err)
				if re == nil {
					t.Fatal("core.Rejection lost the typed rejection")
				}
				if re.Shortfall <= 0 {
					t.Errorf("rejection shortfall = %d, want > 0", re.Shortfall)
				}
				if re.Resource == "" {
					t.Error("rejection lost its resource name")
				}
			}
			if tc.stale {
				se := core.Staleness(tc.err)
				if se == nil {
					t.Fatal("core.Staleness lost the typed staleness")
				}
				if se.Resource != "fds" {
					t.Errorf("staleness resource = %q, want fds", se.Resource)
				}
				if se.Fence < se.Epoch {
					t.Errorf("staleness fence %d < epoch %d", se.Fence, se.Epoch)
				}
			}
		})
	}

	// The concrete shortfalls, pinned: the fsbuffer denial asked for 150
	// of 100 free (short 50); the book asked for 25 of 10 (short 15).
	if re := core.Rejection(denial); re.Shortfall != 50 || re.Resource != "reservation" {
		t.Errorf("denial rejection = %+v, want reservation/50", re)
	}
	if re := core.Rejection(bookErr); re.Shortfall != 15 || re.Resource != "book" {
		t.Errorf("book rejection = %+v, want book/15", re)
	}
}
