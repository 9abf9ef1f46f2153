package lease

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// bookRun spawns body as a single process on a fresh engine with a
// book of capacity units and runs the simulation to quiescence.
func bookRun(t *testing.T, capacity int64, body func(p *sim.Proc, b *Book)) *Book {
	t.Helper()
	e := sim.New(1)
	b := NewBook(e.RT(), "res", capacity)
	e.Spawn("driver", func(p *sim.Proc) { body(p, b) })
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return b
}

func TestBookAdmitAndReject(t *testing.T) {
	b := bookRun(t, 3, func(p *sim.Proc, b *Book) {
		now := p.Elapsed()
		if _, err := b.Reserve(p, "a", now, 10*time.Second, 2); err != nil {
			t.Errorf("first booking rejected: %v", err)
		}
		// 2 + 2 > 3 over the same window: refused with shortfall 1.
		_, err := b.Reserve(p, "b", now, 10*time.Second, 2)
		re := core.Rejection(err)
		if re == nil {
			t.Fatalf("overlapping booking: want RejectedError, got %v", err)
		}
		if re.Shortfall != 1 {
			t.Errorf("shortfall = %d, want 1", re.Shortfall)
		}
		// A unit that fits beside the first booking is admitted, and a
		// disjoint window is a fresh book.
		if _, err := b.Reserve(p, "c", now, 10*time.Second, 1); err != nil {
			t.Errorf("fitting booking rejected: %v", err)
		}
		if _, err := b.Reserve(p, "d", now+10*time.Second, 10*time.Second, 3); err != nil {
			t.Errorf("disjoint booking rejected: %v", err)
		}
	})
	if b.Reserves != 3 || b.Rejects != 1 {
		t.Errorf("reserves=%d rejects=%d, want 3 and 1", b.Reserves, b.Rejects)
	}
}

// The watchdog fires exactly at the window boundary: a holder that is
// still working at end-of-window is revoked at that instant, even if
// its own release was due at the same tick, and the freed window is
// immediately bookable.
func TestBookRevokeAtWindowBoundary(t *testing.T) {
	var revoked bool
	b := bookRun(t, 2, func(p *sim.Proc, b *Book) {
		r, err := b.Reserve(p, "a", p.Elapsed(), 10*time.Second, 2)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		l, err := r.Claim(p, p.Engine().Context())
		if err != nil {
			t.Fatalf("claim: %v", err)
		}
		if d, ok := l.Deadline(); !ok || d != 10*time.Second {
			t.Errorf("claim deadline = %v ok=%v, want exactly the window end 10s", d, ok)
		}
		// Sleep to exactly the boundary; the watchdog wins the tick.
		_ = p.Sleep(l.Ctx(), 10*time.Second)
		revoked = r.Revoked()
		r.Release() // must be a no-op after revocation
		if _, err := b.Reserve(p, "b", p.Elapsed(), time.Second, 2); err != nil {
			t.Errorf("post-revocation booking rejected: %v", err)
		}
	})
	if !revoked {
		t.Fatalf("holder at the window boundary was not revoked")
	}
	if b.tenure.Revokes != 1 || b.tenure.Sense().InUse != 0 {
		t.Errorf("revokes=%d inUse=%d, want 1 and 0", b.tenure.Revokes, b.tenure.Sense().InUse)
	}
}

// A renew near the end of one booked window is clamped to that
// window's boundary even when the holder owns the very next window:
// tenures never straddle bookings.
func TestBookRenewStraddlingWindows(t *testing.T) {
	bookRun(t, 1, func(p *sim.Proc, b *Book) {
		r1, err := b.Reserve(p, "a", 0, 60*time.Second, 1)
		if err != nil {
			t.Fatalf("reserve w1: %v", err)
		}
		r2, err := b.Reserve(p, "a", 60*time.Second, 60*time.Second, 1)
		if err != nil {
			t.Fatalf("reserve back-to-back w2: %v", err)
		}
		l1, err := r1.Claim(p, p.Engine().Context())
		if err != nil {
			t.Fatalf("claim w1: %v", err)
		}
		p.SleepFor(50 * time.Second)
		if !r1.Renew(30 * time.Second) {
			t.Fatalf("renew inside w1 failed")
		}
		if d, _ := l1.Deadline(); d != 60*time.Second {
			t.Errorf("renewed deadline = %v, want clamped to w1 end 60s", d)
		}
		p.SleepFor(5 * time.Second)
		r1.Release()
		p.SleepFor(5 * time.Second) // t = 60s: w2 opens
		l2, err := r2.Claim(p, p.Engine().Context())
		if err != nil {
			t.Fatalf("claim w2 at its boundary: %v", err)
		}
		if d, _ := l2.Deadline(); d != 120*time.Second {
			t.Errorf("w2 deadline = %v, want 120s", d)
		}
		r2.Release()
	})
}

func TestBookLapseAndCancel(t *testing.T) {
	b := bookRun(t, 2, func(p *sim.Proc, b *Book) {
		// Never claimed: lapses at window end.
		r1, err := b.Reserve(p, "a", p.Elapsed(), 5*time.Second, 1)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		// Canceled before the window opens: freed at once.
		r2, err := b.Reserve(p, "b", p.Elapsed()+10*time.Second, 5*time.Second, 2)
		if err != nil {
			t.Fatalf("reserve future: %v", err)
		}
		r2.Cancel()
		if _, err := b.Reserve(p, "c", p.Elapsed()+10*time.Second, 5*time.Second, 2); err != nil {
			t.Errorf("window freed by cancel still rejected: %v", err)
		}
		p.SleepFor(6 * time.Second)
		if _, err := r1.Claim(p, p.Engine().Context()); err != ErrLapsed {
			t.Errorf("claim after window end = %v, want ErrLapsed", err)
		}
	})
	// Both the unclaimed booking and the re-booked "c" window lapse.
	if b.Lapses != 2 || b.Cancels != 1 {
		t.Errorf("lapses=%d cancels=%d, want 2 and 1", b.Lapses, b.Cancels)
	}
}

func TestBookClaimBeforeStart(t *testing.T) {
	bookRun(t, 1, func(p *sim.Proc, b *Book) {
		r, err := b.Reserve(p, "a", p.Elapsed()+10*time.Second, 5*time.Second, 1)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		if _, err := r.Claim(p, p.Engine().Context()); err != ErrNotOpen {
			t.Errorf("early claim = %v, want ErrNotOpen", err)
		}
		r.Cancel()
	})
}

// Releasing a claimed reservation truncates the booking to now: the
// tail of the window is immediately available to competitors.
func TestBookReleaseTruncates(t *testing.T) {
	bookRun(t, 1, func(p *sim.Proc, b *Book) {
		r, err := b.Reserve(p, "a", p.Elapsed(), 100*time.Second, 1)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		if _, err := r.Claim(p, p.Engine().Context()); err != nil {
			t.Fatalf("claim: %v", err)
		}
		p.SleepFor(3 * time.Second)
		r.Release()
		if _, err := b.Reserve(p, "b", p.Elapsed(), 90*time.Second, 1); err != nil {
			t.Errorf("truncated window still booked: %v", err)
		}
	})
}

// Same-window admission is FIFO: when a cohort requests one window in
// arrival order, the book admits exactly the leading requesters that
// fit and refuses the rest.
func TestBookFIFOSameWindow(t *testing.T) {
	const capacity, cohort = 3, 6
	admitted := make([]bool, cohort)
	e := sim.New(1)
	b := NewBook(e.RT(), "res", capacity)
	for i := 0; i < cohort; i++ {
		i := i
		e.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			// Hold the booking (let it lapse): a cancel here would free
			// the window before the next cohort member even runs.
			if _, err := b.Reserve(p, p.Name(), 0, 10*time.Second, 1); err == nil {
				admitted[i] = true
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i, got := range admitted {
		if want := i < capacity; got != want {
			t.Errorf("client %d admitted=%v, want %v (FIFO prefix of %d)", i, got, want, capacity)
		}
	}
}

// Quantum-0 legacy regression: Grant and Renew on a manager without a
// quantum are untouched by the per-lease tenure plumbing — no watchdog,
// no deadline, renew always succeeds. The seed figures lease nothing,
// so this plus the unchanged gridbench goldens pins the legacy path.
func TestGrantForLegacyQuantumZero(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 4, 0)
	e.Spawn("driver", func(p *sim.Proc) {
		l := m.Grant(p, e.Context(), "a", 2)
		if _, ok := l.Deadline(); ok {
			t.Errorf("quantum-0 Grant has a deadline")
		}
		if !l.Renew() || !l.RenewFor(5*time.Second) {
			t.Errorf("quantum-0 renew failed")
		}
		if _, ok := l.Deadline(); ok {
			t.Errorf("RenewFor armed a watchdog on an unlimited lease")
		}
		p.SleepFor(time.Hour)
		if l.Revoked() {
			t.Errorf("unlimited lease was revoked")
		}
		l.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if m.Sense().InUse != 0 || m.Revokes != 0 {
		t.Errorf("inUse=%d revokes=%d, want 0 and 0", m.Sense().InUse, m.Revokes)
	}
}
