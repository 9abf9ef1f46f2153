package lease

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestStaleHandleActsOnEndedLease: a released record serves the next
// grant, and the old handle, whose epoch the record no longer carries,
// acts on an ended lease. Nothing it does reaches the new tenant: the
// books, the ground truth and the new tenant's deadline stay put.
func TestStaleHandleActsOnEndedLease(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 2, 10*time.Second)
	e.Spawn("holder", func(p *sim.Proc) {
		old, err := m.Acquire(p, e.Context(), "a", 1)
		if err != nil {
			t.Error(err)
			return
		}
		epoch := old.Epoch()
		old.Release()
		p.SleepFor(time.Second)
		cur, err := m.Acquire(p, e.Context(), "b", 2)
		if err != nil {
			t.Error(err)
			return
		}
		if cur.r != old.r {
			t.Fatal("the released record was not reused")
		}
		deadline, _ := cur.Deadline()
		inUse, out := m.Sense().InUse, m.Outstanding()

		old.Release()
		old.Release()
		if old.Renew() || old.RenewFor(time.Hour) {
			t.Error("a stale handle renewed")
		}
		old.Revoke()
		if old.Revoked() {
			t.Error("a stale handle reports the tenure revoked; it was released")
		}
		if old.Epoch() != epoch {
			t.Errorf("stale Epoch = %d, want %d", old.Epoch(), epoch)
		}
		if old.Ctx().Err() == nil {
			t.Error("a stale handle's context is live")
		}
		if old.Units() != 0 || old.Holder() != "" || old.Ordinal() != 0 {
			t.Errorf("stale handle reads the new tenant: units=%d holder=%q ordinal=%d", old.Units(), old.Holder(), old.Ordinal())
		}
		if _, ok := old.Deadline(); ok {
			t.Error("a stale handle has a deadline")
		}

		if m.Sense().InUse != inUse || m.Outstanding() != out {
			t.Errorf("inUse %d -> %d, outstanding %d -> %d", inUse, m.Sense().InUse, out, m.Outstanding())
		}
		if d, _ := cur.Deadline(); d != deadline {
			t.Errorf("new tenant's deadline %v -> %v", deadline, d)
		}
		if cur.Revoked() || cur.Ctx().Err() != nil || cur.Units() != 2 || cur.Holder() != "b" {
			t.Error("the new tenant was touched through the stale handle")
		}
		if m.Revokes != 0 {
			t.Errorf("revokes=%d, want 0", m.Revokes)
		}
		cur.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Sense().InUse != 0 || m.Outstanding() != 0 {
		t.Fatalf("inUse=%d outstanding=%d at the end", m.Sense().InUse, m.Outstanding())
	}
}

// TestRevokedRecordIsNotReused: a revoked tenure's record stays with
// its handle, which keeps answering for it: Revoked stays true after
// the holder's (no-op) Release, and the next grant gets another record.
func TestRevokedRecordIsNotReused(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 5*time.Second)
	e.Spawn("holder", func(p *sim.Proc) {
		old, err := m.Acquire(p, e.Context(), "a", 1)
		if err != nil {
			t.Error(err)
			return
		}
		_ = p.Hang(old.Ctx()) // wedged until the watchdog revokes
		old.Release()
		cur, err := m.Acquire(p, e.Context(), "a", 1)
		if err != nil {
			t.Error(err)
			return
		}
		if cur.r == old.r {
			t.Error("a revoked record was reused")
		}
		if !old.Revoked() || old.Ctx().Err() == nil {
			t.Error("the revoked handle forgot its revocation")
		}
		cur.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Revokes != 1 {
		t.Fatalf("revokes=%d, want 1", m.Revokes)
	}
}

// TestWireHoldsRecordUntilDelivery: a release the wire delays keeps its
// record until it is delivered, so a grant in between gets another
// record and the late delivery frees the tenure it belongs to.
func TestWireHoldsRecordUntilDelivery(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 2, 10*time.Second)
	inj := &oneShot{}
	m.SetWire(inj, "wire", true)
	e.Spawn("holder", func(p *sim.Proc) {
		old, err := m.Acquire(p, e.Context(), "a", 1)
		if err != nil {
			t.Error(err)
			return
		}
		inj.next = core.Fault{Delay: 2 * time.Second}
		old.Release()
		cur, err := m.Acquire(p, e.Context(), "b", 1)
		if err != nil {
			t.Error(err)
			return
		}
		if cur.r == old.r {
			t.Error("a record the wire still carries was reused")
		}
		p.SleepFor(3 * time.Second)
		if m.Sense().InUse != 1 {
			t.Errorf("inUse=%d after the delayed release landed, want 1", m.Sense().InUse)
		}
		cur.Release()
		next, _ := m.Acquire(p, e.Context(), "c", 1)
		if next.r != cur.r && next.r != old.r {
			t.Error("no delivered record was reused")
		}
		next.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Sense().InUse != 0 || m.Outstanding() != 0 || m.Stales != 0 {
		t.Fatalf("inUse=%d outstanding=%d stales=%d", m.Sense().InUse, m.Outstanding(), m.Stales)
	}
}

// TestLeaseCycleAllocs is the allocation budget of a whole tenure on the
// sim: acquire, renew, release. In steady state it allocates nothing:
// the record comes from the manager's free list, its lease context from
// the engine's, and its watchdog is an alarm the record owns.
func TestLeaseCycleAllocs(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 10*time.Second)
	var allocs float64
	e.Spawn("holder", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			l, err := m.Acquire(p, e.Context(), "holder", 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !l.Renew() {
				t.Error("renew of a live lease failed")
			}
			l.Release()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per acquire/renew/release: budget 0", allocs)
	}
}
