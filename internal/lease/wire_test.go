package lease

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// oneShot is a scripted injector: it returns the staged fault exactly
// once, then zero faults. Tests stage a fault immediately before the
// one wire operation that should draw it; every other consultation
// (grant acknowledgements, clean renews) sees a clean channel.
type oneShot struct{ next core.Fault }

func (o *oneShot) Inject(string) core.Fault {
	f := o.next
	o.next = core.Fault{}
	return f
}

// TestWireReleaseDropWatchdogReclaims: a dropped release leaves the
// manager's books charged — the holder is gone (ground truth zero) but
// the manager never heard the end. The watchdog reclaims the zombie at
// the old deadline; fencing retires the epoch so nothing can free it
// twice.
func TestWireReleaseDropWatchdogReclaims(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 5*time.Second)
	inj := &oneShot{}
	m.SetWire(inj, "wire", true)
	e.Spawn("a", func(p *sim.Proc) {
		l, err := m.Acquire(p, e.Context(), "a", 1)
		if err != nil {
			t.Error(err)
			return
		}
		p.SleepFor(2 * time.Second)
		inj.next = core.Fault{Drop: true}
		l.Release()
		if m.Outstanding() != 0 {
			t.Errorf("outstanding=%d after holder stopped, want 0", m.Outstanding())
		}
		if m.Sense().InUse != 1 {
			t.Errorf("inUse=%d right after dropped release, want 1 (zombie)", m.Sense().InUse)
		}
		p.SleepFor(4 * time.Second) // past the 5s deadline
		if m.Sense().InUse != 0 {
			t.Errorf("inUse=%d after watchdog deadline, want 0", m.Sense().InUse)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Revokes != 1 || m.Drops != 1 {
		t.Fatalf("revokes=%d drops=%d, want 1 and 1", m.Revokes, m.Drops)
	}
}

// TestWireRenewDropWatchdogFires: a dropped renewal means the holder
// believes it extended its tenure while the watchdog still runs on the
// old schedule — the tenure is revoked at the original deadline.
func TestWireRenewDropWatchdogFires(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 5*time.Second)
	inj := &oneShot{}
	m.SetWire(inj, "wire", true)
	var revokedAt time.Duration
	e.Spawn("a", func(p *sim.Proc) {
		l, err := m.Acquire(p, e.Context(), "a", 1)
		if err != nil {
			t.Error(err)
			return
		}
		p.SleepFor(3 * time.Second)
		inj.next = core.Fault{Drop: true}
		if !l.Renew() {
			t.Error("renew over a lossy wire must still report success to the holder")
		}
		p.Hang(l.Ctx())
		revokedAt = e.Elapsed()
		if !l.Revoked() {
			t.Error("lease not revoked after lost renewal")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if revokedAt != 5*time.Second {
		t.Fatalf("revoked at %v, want the original 5s deadline", revokedAt)
	}
}

// TestWireReleaseDupFencing: a duplicated release is the canonical
// double-free. The fence rejects the second copy as stale, so admission
// stays within capacity; the unfenced manager applies both copies,
// understates its books, and admits real demand past true capacity —
// outstanding exceeds capacity, the no-double-allocation violation.
func TestWireReleaseDupFencing(t *testing.T) {
	for _, fenced := range []bool{true, false} {
		e := sim.New(1)
		m := New(e.RT(), "res", 2, time.Minute)
		inj := &oneShot{}
		m.SetWire(inj, "wire", fenced)
		e.Spawn("a", func(p *sim.Proc) {
			ctx := e.Context()
			la, err := m.Acquire(p, ctx, "a", 1)
			if err != nil {
				t.Error(err)
				return
			}
			lb, err := m.Acquire(p, ctx, "b", 1)
			if err != nil {
				t.Error(err)
				return
			}
			defer lb.Release()
			inj.next = core.Fault{Dup: true}
			la.Release()
			// One more unit genuinely fits (a's slot). A fenced manager
			// grants exactly that; the unfenced one, having double-freed
			// a's unit, believes two fit.
			lc, ok := m.TryAcquire(p, ctx, "c", 1)
			if !ok {
				t.Errorf("fenced=%v: the freed unit was not grantable", fenced)
				return
			}
			defer lc.Release()
			ld, ok := m.TryAcquire(p, ctx, "d", 1)
			if fenced {
				if ok {
					ld.Release()
					t.Error("fenced: duplicate release freed a unit twice")
				}
				if m.Outstanding() > m.Sense().Capacity {
					t.Errorf("fenced: outstanding %d > capacity %d", m.Outstanding(), m.Sense().Capacity)
				}
				if m.Stales != 1 {
					t.Errorf("fenced: stales=%d, want 1", m.Stales)
				}
			} else {
				if !ok {
					t.Error("unfenced: double-free did not open a phantom slot")
					return
				}
				defer ld.Release()
				if m.Outstanding() <= m.Sense().Capacity {
					t.Errorf("unfenced: outstanding %d <= capacity %d, double-allocation not reproduced",
						m.Outstanding(), m.Sense().Capacity)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireDelayedReleaseRacesWatchdog: a release delayed past the
// deadline loses the race — the watchdog revokes and reclaims first.
// The late delivery is then stale: fenced it is rejected; unfenced it
// frees units the next tenant now holds.
func TestWireDelayedReleaseRacesWatchdog(t *testing.T) {
	for _, fenced := range []bool{true, false} {
		e := sim.New(1)
		m := New(e.RT(), "res", 1, 5*time.Second)
		inj := &oneShot{}
		m.SetWire(inj, "wire", fenced)
		e.Spawn("a", func(p *sim.Proc) {
			ctx := e.Context()
			l, err := m.Acquire(p, ctx, "a", 1)
			if err != nil {
				t.Error(err)
				return
			}
			p.SleepFor(time.Second)
			inj.next = core.Fault{Delay: 7 * time.Second} // lands at t=8s, deadline 5s
			l.Release()
			p.SleepFor(5 * time.Second) // t=6s: watchdog has reclaimed
			if m.Sense().InUse != 0 {
				t.Errorf("fenced=%v: inUse=%d after watchdog reclaim, want 0", fenced, m.Sense().InUse)
			}
			lb, ok := m.TryAcquire(p, ctx, "b", 1)
			if !ok {
				t.Error("reclaimed unit not grantable")
				return
			}
			defer lb.Release()
			p.SleepFor(3 * time.Second) // t=9s: the stale delivery has landed, b still inside its tenure
			if fenced {
				if m.Sense().InUse != 1 {
					t.Errorf("fenced: stale delivery changed the books (inUse=%d, want 1)", m.Sense().InUse)
				}
				if m.Stales != 1 {
					t.Errorf("fenced: stales=%d, want 1", m.Stales)
				}
			} else if m.Sense().InUse != 0 {
				t.Errorf("unfenced: stale delivery should have double-freed b's unit (inUse=%d, want 0)", m.Sense().InUse)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireGrantDupSemantics: a duplicated grant acknowledgement is a
// retransmitted acquire reaching the manager twice. The fence dedupes
// it by epoch; the unfenced manager books a second, holderless tenure
// that pins capacity until the watchdog notices nobody renews it.
func TestWireGrantDupSemantics(t *testing.T) {
	for _, fenced := range []bool{true, false} {
		e := sim.New(1)
		m := New(e.RT(), "res", 4, 6*time.Second)
		inj := &oneShot{}
		m.SetWire(inj, "wire", fenced)
		e.Spawn("a", func(p *sim.Proc) {
			inj.next = core.Fault{Dup: true}
			l, err := m.Acquire(p, e.Context(), "a", 2)
			if err != nil {
				t.Error(err)
				return
			}
			want := int64(2)
			if !fenced {
				want = 4 // the phantom booking rides along
			}
			if m.Sense().InUse != want {
				t.Errorf("fenced=%v: inUse=%d after duplicated grant, want %d", fenced, m.Sense().InUse, want)
			}
			p.SleepFor(5 * time.Second)
			l.Renew()                   // stay alive past the phantom's quantum
			p.SleepFor(2 * time.Second) // t=7s: phantom (t=6s) reclaimed
			if m.Sense().InUse != 2 {
				t.Errorf("fenced=%v: inUse=%d after phantom quantum, want 2", fenced, m.Sense().InUse)
			}
			l.Release()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Sense().InUse != 0 || m.Outstanding() != 0 {
			t.Fatalf("fenced=%v: inUse=%d outstanding=%d at end, want 0", fenced, m.Sense().InUse, m.Outstanding())
		}
	}
}

// TestWireDelayedRenewThenDelayedRelease is the regression for a book
// leak: with a renewal delivery and a release delivery both in flight,
// the renewal landing first must not consume the release's in-flight
// state — if it does, the release delivery returns without freeing the
// books and the watchdog (seeing neither lost nor in-flight) declines
// to reclaim, leaving a permanent zombie booking.
func TestWireDelayedRenewThenDelayedRelease(t *testing.T) {
	for _, fenced := range []bool{true, false} {
		e := sim.New(1)
		m := New(e.RT(), "res", 1, 10*time.Second)
		inj := &oneShot{}
		m.SetWire(inj, "wire", fenced)
		e.Spawn("a", func(p *sim.Proc) {
			l, err := m.Acquire(p, e.Context(), "a", 1)
			if err != nil {
				t.Error(err)
				return
			}
			p.SleepFor(2 * time.Second)
			inj.next = core.Fault{Delay: 5 * time.Second} // renewal lands at t=7s
			l.Renew()
			p.SleepFor(time.Second)
			inj.next = core.Fault{Delay: 6 * time.Second} // release lands at t=9s
			l.Release()
			p.SleepFor(8 * time.Second) // t=11s: both deliveries and the deadline have passed
			if m.Sense().InUse != 0 {
				t.Errorf("fenced=%v: inUse=%d after release delivery, want 0 (books leaked)",
					fenced, m.Sense().InUse)
			}
			if m.Outstanding() != 0 {
				t.Errorf("fenced=%v: outstanding=%d, want 0", fenced, m.Outstanding())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireRemovedRestoresLegacyBehavior: installing and removing a wire
// leaves a manager indistinguishable from one that never had it.
func TestWireRemovedRestoresLegacyBehavior(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 5*time.Second)
	inj := &oneShot{next: core.Fault{Drop: true}}
	m.SetWire(inj, "wire", true)
	m.SetWire(nil, "", false)
	if m.Fenced() {
		t.Fatal("removed wire still reports fenced")
	}
	e.Spawn("a", func(p *sim.Proc) {
		l, err := m.Acquire(p, e.Context(), "a", 1)
		if err != nil {
			t.Error(err)
			return
		}
		l.Release()
		if m.Sense().InUse != 0 {
			t.Errorf("inUse=%d, want 0", m.Sense().InUse)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Drops != 0 {
		t.Fatalf("drops=%d after wire removed, want 0", m.Drops)
	}
}
