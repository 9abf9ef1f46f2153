package lease

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestUnlimitedTenureIsPlainSemaphore(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 2, 0)
	var got error
	e.Spawn("a", func(p *sim.Proc) {
		ctx := e.Context()
		l1, err := m.Acquire(p, ctx, "a", 1)
		if err != nil {
			got = err
			return
		}
		if l1.Ctx() != ctx {
			t.Error("unlimited lease must reuse the acquisition context")
		}
		if _, ok := l1.Deadline(); ok {
			t.Error("unlimited lease must have no deadline")
		}
		if !l1.Renew() {
			t.Error("renewing an unlimited lease must succeed")
		}
		p.SleepFor(time.Hour) // far beyond any quantum
		if l1.Revoked() {
			t.Error("unlimited lease revoked")
		}
		l1.Release()
		l1.Release() // idempotent
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal(got)
	}
	if m.Sense().InUse != 0 || m.Revokes != 0 {
		t.Fatalf("inUse=%d revokes=%d", m.Sense().InUse, m.Revokes)
	}
}

func TestWatchdogRevokesStuckHolder(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 10*time.Second)
	var hangErr error
	var revokedAt time.Duration
	e.Spawn("stuck", func(p *sim.Proc) {
		l, err := m.Acquire(p, e.Context(), "stuck", 1)
		if err != nil {
			t.Error(err)
			return
		}
		// Never renew, never release: the watchdog must reclaim us.
		hangErr = p.Hang(l.Ctx())
		revokedAt = e.Elapsed()
		if !l.Revoked() {
			t.Error("lease not marked revoked")
		}
		if l.Renew() {
			t.Error("renew after revocation must fail")
		}
		l.Release() // no-op after revocation
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hangErr == nil {
		t.Fatal("hang returned nil: lease context was never canceled")
	}
	if revokedAt != 10*time.Second {
		t.Fatalf("revoked at %v, want 10s", revokedAt)
	}
	if m.Sense().InUse != 0 {
		t.Fatalf("units not reclaimed: inUse=%d", m.Sense().InUse)
	}
	if m.Revokes != 1 {
		t.Fatalf("Revokes=%d", m.Revokes)
	}
	cs := m.Clients()
	if len(cs) != 1 || cs[0].Holder != "stuck" || cs[0].Revokes != 1 {
		t.Fatalf("client ledger: %+v", cs)
	}
}

func TestRenewExtendsTenure(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 10*time.Second)
	e.Spawn("worker", func(p *sim.Proc) {
		l, err := m.Acquire(p, e.Context(), "worker", 1)
		if err != nil {
			t.Error(err)
			return
		}
		// 5 renewals of 6s each: total tenure 30s, never past a deadline.
		for i := 0; i < 5; i++ {
			p.SleepFor(6 * time.Second)
			if !l.Renew() {
				t.Errorf("renew %d failed at %v", i, e.Elapsed())
				return
			}
		}
		if l.Revoked() {
			t.Error("actively renewing holder was revoked")
		}
		l.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Revokes != 0 || m.Sense().InUse != 0 {
		t.Fatalf("revokes=%d inUse=%d", m.Revokes, m.Sense().InUse)
	}
}

// TestRenewAllocs is the allocation budget of a renew on the sim: none.
// The watchdog is an alarm the lease record owns across renewals and
// tenures, which re-arms the engine's timer in place; it was a core.Timer
// boxed per renewal, one allocation.
func TestRenewAllocs(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 10*time.Second)
	var allocs float64
	e.Spawn("holder", func(p *sim.Proc) {
		l, err := m.Acquire(p, e.Context(), "holder", 1)
		if err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(100, func() {
			if !l.Renew() {
				t.Error("renew of a live lease failed")
			}
		})
		l.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per renew: budget 0", allocs)
	}
}

// TestTakeAllocs is the allocation budget of the raw semaphore path on
// the sim. An uncontended Take+Put mints nothing. A parked Take pays
// for its place in the queue: the waiter record and the queue slot,
// since a queue that empties from the front has no spare capacity left
// to append into. Its wait context is the engine's to recycle (it was
// a fresh Ctx and cancel closure per park, two more).
func TestTakeAllocs(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 0)
	ctx, stop := e.WithCancel(e.Context())
	var free, parked float64
	e.Spawn("a", func(p *sim.Proc) {
		free = testing.AllocsPerRun(100, func() {
			if err := m.Take(p, ctx, 1); err != nil {
				t.Error(err)
			}
			m.Put(1)
		})
		// Ping-pong with b: each run is one Put that grants b, then a
		// Take that parks until b's Put grants it back, while b's own
		// Take parks in turn — two parked Takes per run.
		if m.Take(p, ctx, 1) != nil {
			t.Error("the unit is not free")
		}
		p.Yield() // b parks behind a's unit
		parked = testing.AllocsPerRun(100, func() {
			m.Put(1)
			if err := m.Take(p, ctx, 1); err != nil {
				t.Error(err)
			}
		}) / 2
		stop()
		m.Put(1)
	})
	e.Spawn("b", func(p *sim.Proc) {
		for m.Take(p, ctx, 1) == nil {
			m.Put(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.2f allocations per free Take+Put, %.2f per parked Take", free, parked)
	if free != 0 {
		t.Errorf("%.1f allocations per uncontended Take+Put: budget 0", free)
	}
	if parked > 2 {
		t.Errorf("%.1f allocations per parked Take: budget 2", parked)
	}
}

func TestRevocationWakesWaiter(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 10*time.Second)
	var waiterGrantedAt time.Duration
	e.Spawn("stuck", func(p *sim.Proc) {
		l, _ := m.Acquire(p, e.Context(), "stuck", 1)
		_ = p.Hang(l.Ctx())
	})
	e.Spawn("waiter", func(p *sim.Proc) {
		p.SleepFor(time.Second)
		l, err := m.Acquire(p, e.Context(), "waiter", 1)
		if err != nil {
			t.Error(err)
			return
		}
		waiterGrantedAt = e.Elapsed()
		l.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waiterGrantedAt != 10*time.Second {
		t.Fatalf("waiter granted at %v, want 10s (the revocation instant)", waiterGrantedAt)
	}
	cs := m.Clients()
	if len(cs) != 2 {
		t.Fatalf("clients: %+v", cs)
	}
	w := cs[1]
	if w.Holder != "waiter" || w.MaxWait != 9*time.Second {
		t.Fatalf("waiter ledger: %+v", w)
	}
}

func TestFIFOOrderAndHeadOfLineBlocking(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 4, 0)
	var order []string
	grab := func(name string, units int64, after time.Duration, hold time.Duration) {
		e.Spawn(name, func(p *sim.Proc) {
			p.SleepFor(after)
			l, err := m.Acquire(p, e.Context(), name, units)
			if err != nil {
				t.Error(err)
				return
			}
			order = append(order, name)
			p.SleepFor(hold)
			l.Release()
		})
	}
	grab("a", 4, 0, 10*time.Second)
	// b wants 3 and queues first; c wants 1 and arrives later. When a
	// releases, b must be served before c even though c fits earlier.
	grab("b", 3, time.Second, 10*time.Second)
	grab("c", 1, 2*time.Second, time.Second)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("grant order = %v, want [a b c]", order)
	}
}

func TestWaiterCancellation(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 0)
	var werr error
	e.Spawn("holder", func(p *sim.Proc) {
		l, _ := m.Acquire(p, e.Context(), "holder", 1)
		p.SleepFor(time.Hour)
		l.Release()
	})
	e.Spawn("waiter", func(p *sim.Proc) {
		p.SleepFor(time.Second)
		ctx, cancel := p.WithTimeout(e.Context(), 5*time.Second)
		defer cancel()
		_, werr = m.Acquire(p, ctx, "waiter", 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if werr != context.DeadlineExceeded {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", werr)
	}
	if m.Timeouts != 1 {
		t.Fatalf("Timeouts = %d", m.Timeouts)
	}
	if m.QueueLen() != 0 {
		t.Fatalf("dead waiter still queued: QueueLen=%d", m.QueueLen())
	}
}

func TestSetCapacityGrowsAndShrinks(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 0)
	var grantedAt time.Duration
	e.Spawn("holder", func(p *sim.Proc) {
		l, _ := m.Acquire(p, e.Context(), "holder", 1)
		p.SleepFor(time.Hour)
		l.Release()
	})
	e.Spawn("waiter", func(p *sim.Proc) {
		p.SleepFor(time.Second)
		l, err := m.Acquire(p, e.Context(), "waiter", 1)
		if err != nil {
			t.Error(err)
			return
		}
		grantedAt = e.Elapsed()
		l.Release()
	})
	// Growing capacity mid-wait must grant the queued waiter immediately.
	e.Schedule(10*time.Second, func() { m.SetCapacity(2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if grantedAt != 10*time.Second {
		t.Fatalf("waiter granted at %v, want 10s (the capacity grow)", grantedAt)
	}
	m.SetCapacity(-5)
	if m.Sense().Capacity != 0 {
		t.Fatalf("negative capacity must clamp to 0, got %d", m.Sense().Capacity)
	}
}

func TestTryAcquireStartsStarvationClock(t *testing.T) {
	e := sim.New(1)
	m := New(e.RT(), "res", 1, 0)
	e.Spawn("a", func(p *sim.Proc) {
		l, ok := m.TryAcquire(p, e.Context(), "a", 1)
		if !ok {
			t.Error("first TryAcquire failed")
			return
		}
		p.SleepFor(20 * time.Second)
		l.Release()
	})
	e.Spawn("b", func(p *sim.Proc) {
		p.SleepFor(time.Second)
		if _, ok := m.TryAcquire(p, e.Context(), "b", 1); ok {
			t.Error("over-capacity TryAcquire succeeded")
			return
		}
		if m.LongestWait() != 0 {
			t.Errorf("LongestWait just after denial = %v", m.LongestWait())
		}
		p.SleepFor(9 * time.Second)
		// b has now wanted the resource for 9s without holding it.
		if m.LongestWait() != 9*time.Second {
			t.Errorf("LongestWait = %v, want 9s", m.LongestWait())
		}
		p.SleepFor(11 * time.Second)
		l, ok := m.TryAcquire(p, e.Context(), "b", 1)
		if !ok {
			t.Error("TryAcquire after release failed")
			return
		}
		l.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Rejects != 1 {
		t.Fatalf("Rejects = %d", m.Rejects)
	}
	cs := m.Clients()
	if len(cs) != 2 {
		t.Fatalf("clients: %+v", cs)
	}
	// b's wait ran from its denial at t=1s to its grant at t=21s.
	if b := cs[1]; b.Holder != "b" || b.MaxWait != 20*time.Second || b.Rejects != 1 {
		t.Fatalf("b ledger: %+v", b)
	}
	if m.MaxStarvation() != 20*time.Second {
		t.Fatalf("MaxStarvation = %v", m.MaxStarvation())
	}
}

func TestNilEngineIsPlainCounter(t *testing.T) {
	m := New(nil, "fds", 10, time.Minute) // quantum forced to 0 without an engine
	if m.Quantum() != 0 {
		t.Fatalf("quantum with nil engine = %v", m.Quantum())
	}
	ctx := context.Background()
	l1, ok1 := m.TryAcquire(nil, ctx, "a", 6)
	l2, ok2 := m.TryAcquire(nil, ctx, "b", 4)
	if !ok1 || !ok2 {
		t.Fatal("TryAcquire within capacity failed")
	}
	if _, ok := m.TryAcquire(nil, ctx, "c", 1); ok {
		t.Fatal("TryAcquire over capacity succeeded")
	}
	l1.Release()
	l2.Release()
	if m.Sense().InUse != 0 || m.Acquires != 2 || m.Rejects != 1 {
		t.Fatalf("inUse=%d acquires=%d rejects=%d", m.Sense().InUse, m.Acquires, m.Rejects)
	}
}

func TestPutUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil, "res", 10, 0).Put(1)
}

// Admission compares without adding: a request near MaxInt64 on a
// partly used resource must be refused, not wrapped negative and
// admitted (gridd takes units straight off the socket).
func TestHugeRequestsAreRefusedNotWrapped(t *testing.T) {
	const huge = math.MaxInt64
	e := sim.New(1)
	m := New(e.RT(), "res", 2, 0)
	b := NewBook(e.RT(), "book", 2)
	e.Spawn("a", func(p *sim.Proc) {
		ctx := e.Context()
		if _, ok := m.TryAcquire(p, ctx, "a", 1); !ok {
			t.Fatal("seed acquire refused")
		}
		if _, ok := m.TryAcquire(p, ctx, "b", huge); ok {
			t.Error("TryAcquire(MaxInt64) admitted beside a unit in use")
		}
		wctx, cancel := e.WithTimeout(ctx, time.Second)
		defer cancel()
		if _, err := m.Acquire(p, wctx, "b", huge); err == nil {
			t.Error("Acquire(MaxInt64) admitted beside a unit in use")
		}
		tctx, tcancel := e.WithTimeout(ctx, time.Second)
		defer tcancel()
		if m.Take(p, tctx, huge) == nil {
			t.Error("Take(MaxInt64) admitted beside a unit in use")
		}
		if m.Sense().InUse != 1 || m.Outstanding() != 1 {
			t.Errorf("books moved: inUse=%d outstanding=%d, want 1 and 1", m.Sense().InUse, m.Outstanding())
		}

		now := p.Elapsed()
		if _, err := b.Reserve(p, "a", now, time.Hour, 1); err != nil {
			t.Fatalf("seed booking refused: %v", err)
		}
		_, err := b.Reserve(p, "b", now, time.Hour, huge)
		if re := core.Rejection(err); re == nil || re.Shortfall != huge-1 {
			t.Errorf("Reserve(MaxInt64) = %v; want rejected with shortfall MaxInt64-1", err)
		}
		if got := b.Booked(now, now+time.Hour); got != 1 || b.Outstanding() != 1 {
			t.Errorf("book moved: booked=%d live=%d, want 1 and 1", got, b.Outstanding())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
