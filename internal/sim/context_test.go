package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/lease"
)

func TestWithCancelOnCanceledParent(t *testing.T) {
	e := New(1)
	parent, cancel := e.WithCancel(e.Context())
	cancel()
	child, ccancel := e.WithCancel(parent)
	defer ccancel()
	if !errors.Is(child.Err(), context.Canceled) {
		t.Fatalf("child of canceled parent: Err = %v", child.Err())
	}
}

func TestWithTimeoutOnCanceledParent(t *testing.T) {
	e := New(1)
	parent, cancel := e.WithCancel(e.Context())
	cancel()
	child, ccancel := e.WithTimeout(parent, time.Hour)
	defer ccancel()
	if child.Err() == nil {
		t.Fatal("child of canceled parent is live")
	}
}

func TestDeadlinePropagatesToChild(t *testing.T) {
	e := New(1)
	outer, c1 := e.WithTimeout(e.Context(), time.Minute)
	defer c1()
	inner, c2 := e.WithTimeout(outer, time.Hour)
	defer c2()
	d, ok := inner.Deadline()
	if !ok {
		t.Fatal("no deadline")
	}
	if want := Epoch.Add(time.Minute); !d.Equal(want) {
		t.Fatalf("inner deadline = %v, want parent's %v", d, want)
	}
}

func TestCancelIsIdempotentAndPrunesChildren(t *testing.T) {
	e := New(1)
	parent, pcancel := e.WithCancel(e.Context())
	child, ccancel := e.WithCancel(parent)
	ccancel()
	ccancel() // idempotent
	pcancel()
	if !errors.Is(child.Err(), context.Canceled) {
		t.Fatalf("child Err = %v", child.Err())
	}
	select {
	case <-child.Done():
	default:
		t.Fatal("child Done not closed")
	}
}

func TestValueDelegatesToParent(t *testing.T) {
	e := New(1)
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "payload")
	ctx, cancel := e.WithCancel(parent)
	defer cancel()
	if got := ctx.Value(key{}); got != "payload" {
		t.Fatalf("Value = %v", got)
	}
}

func TestRootContextValueIsNil(t *testing.T) {
	e := New(1)
	if v := e.Context().Value("anything"); v != nil {
		t.Fatalf("root Value = %v", v)
	}
}

func TestDeadlineAbsentWithoutTimeout(t *testing.T) {
	e := New(1)
	ctx, cancel := e.WithCancel(e.Context())
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("cancel-only context reports a deadline")
	}
}

func TestHangOnCanceledContextReturnsImmediately(t *testing.T) {
	e := New(1)
	ctx, cancel := e.WithCancel(e.Context())
	cancel()
	e.Spawn("h", func(p *Proc) {
		if err := p.Hang(ctx); err == nil {
			t.Error("Hang on dead ctx returned nil")
		}
		if p.Elapsed() != 0 {
			t.Errorf("Hang consumed %v", p.Elapsed())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepOnCanceledContextReturnsImmediately(t *testing.T) {
	e := New(1)
	ctx, cancel := e.WithCancel(e.Context())
	cancel()
	e.Spawn("s", func(p *Proc) {
		if err := p.Sleep(ctx, time.Hour); err == nil {
			t.Error("Sleep on dead ctx returned nil")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSetCapacity(t *testing.T) {
	e := New(1)
	r := lease.New(e.RT(), "r", 2, 0)
	e.Spawn("x", func(p *Proc) {
		ctx := e.Context()
		l1, ok1 := r.TryAcquire(p, ctx, "x", 1)
		l2, ok2 := r.TryAcquire(p, ctx, "x", 1)
		if !ok1 || !ok2 {
			t.Error("initial capacity not 2")
		}
		r.SetCapacity(1) // shrink below inUse: drains as released
		if _, ok := r.TryAcquire(p, ctx, "x", 1); ok {
			t.Error("acquire beyond shrunk capacity")
		}
		l1.Release()
		l2.Release()
		l3, ok := r.TryAcquire(p, ctx, "x", 1)
		if !ok {
			t.Error("acquire after drain failed")
		}
		if s := r.Sense(); s.Free() != 0 || s.InUse != 1 || s.Capacity != 1 {
			t.Errorf("state = cap %d inUse %d", s.Capacity, s.InUse)
		}
		l3.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAccounting(t *testing.T) {
	e := New(1)
	if !e.Quiesced() {
		t.Fatal("fresh engine not quiesced")
	}
	tm := e.Schedule(time.Second, func() {})
	if e.Quiesced() {
		t.Fatal("engine with pending timer reports quiesced")
	}
	if tm.When() != time.Second {
		t.Fatalf("When = %v", tm.When())
	}
	e.Spawn("p", func(p *Proc) { p.SleepFor(2 * time.Second) })
	if e.Live() != 1 {
		t.Fatalf("Live = %d", e.Live())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 || !e.Quiesced() {
		t.Fatalf("after run: live=%d quiesced=%v", e.Live(), e.Quiesced())
	}
	if e.Events() == 0 {
		t.Fatal("no events counted")
	}
	if e.Now() != Epoch.Add(2*time.Second) {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestResourceQueueLen(t *testing.T) {
	e := New(1)
	r := lease.New(e.RT(), "r", 1, 0)
	e.Spawn("holder", func(p *Proc) {
		_ = r.Take(p, e.Context(), 1)
		p.SleepFor(10 * time.Second)
		r.Put(1)
	})
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.SleepFor(time.Second)
			if err := r.Take(p, e.Context(), 1); err == nil {
				r.Put(1)
			}
		})
	}
	e.Schedule(5*time.Second, func() {
		if got := r.QueueLen(); got != 3 {
			t.Errorf("QueueLen = %d, want 3", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.QueueLen() != 0 {
		t.Fatalf("final QueueLen = %d", r.QueueLen())
	}
}

func TestSetCapacityGrowthGrantsWaiters(t *testing.T) {
	e := New(1)
	r := lease.New(e.RT(), "r", 1, 0)
	var gotAt time.Duration
	e.Spawn("holder", func(p *Proc) {
		_ = r.Take(p, e.Context(), 1)
		p.SleepFor(time.Hour)
		r.Put(1)
	})
	e.Spawn("waiter", func(p *Proc) {
		if err := r.Take(p, e.Context(), 1); err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		gotAt = p.Elapsed()
		r.Put(1)
	})
	// Capacity doubles at t=5s; the waiter must be granted then, not
	// an hour later when the holder releases.
	e.Schedule(5*time.Second, func() { r.SetCapacity(2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != 5*time.Second {
		t.Fatalf("waiter granted at %v, want 5s", gotAt)
	}
}

// TestCtxRecycledByDerivingProcess: the deriving process's cancel hands
// the record back, the next derive reuses it, and a second cancel before
// the reuse neither cancels anything nor returns the record twice. A
// cancel from anywhere else only cancels.
func TestCtxRecycledByDerivingProcess(t *testing.T) {
	e := New(1)
	outside, stop := e.WithCancel(e.Context()) // derived outside any process
	e.Spawn("a", func(p *Proc) {
		ctx, cancel := p.WithCancel(e.Context())
		cancel()
		cancel()
		if len(e.ctxFree) != 1 {
			t.Fatalf("%d records on the free list after a double cancel, want 1", len(e.ctxFree))
		}
		if ctx.Err() == nil {
			t.Error("a canceled context reads live before its record is reused")
		}
		again, cancel2 := p.WithTimeout(e.Context(), time.Hour)
		if again != ctx || again.Err() != nil {
			t.Fatal("the next derive did not reuse the record as a live context")
		}
		cancel2()
		stop()
		if len(e.ctxFree) != 1 {
			t.Error("a cancel by another party than the deriving process recycled")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outside.Err(), context.Canceled) {
		t.Fatalf("outside Err = %v", outside.Err())
	}
}

// TestRecycledCtxNeverFiresOldHook: a process woken by a cancellation
// deregisters its hook after the record may have moved on. Hook ids are
// never reused on a record, so the late deregistration misses the new
// tenant's hook, and the new tenant's cancellation fires only its own.
func TestRecycledCtxNeverFiresOldHook(t *testing.T) {
	e := New(1)
	var first context.Context
	var fired []string
	e.Spawn("owner", func(p *Proc) {
		var end context.CancelFunc
		first, end = p.WithCancel(e.Context())
		p.Yield() // the sleeper parks on first
		end()     // wakes it; it has not run yet
		second, end2 := p.WithCancel(e.Context())
		if second != first {
			t.Fatal("the record was not reused")
		}
		second.(*Ctx).onCancel(func(err error) { fired = append(fired, "new:"+errName(err)) })
		p.Yield() // the sleeper resumes and deregisters its old hook
		end2()
	})
	e.Spawn("sleeper", func(p *Proc) {
		err := p.Sleep(first, time.Hour)
		fired = append(fired, "sleeper:"+errName(err))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "sleeper:canceled" || fired[1] != "new:canceled" {
		t.Fatalf("wakeups %v, want the sleeper once, then the new tenant's hook once", fired)
	}
}

func errName(err error) string {
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return "other"
}

// TestRecycledCtxNeverCascadesToOldChild: the children of a record's
// old tenure are not the new tenant's. A parent and its child are both
// recycled; the child's record goes to an unrelated context, the
// parent's to a new parent, and canceling the new parent leaves the
// unrelated context live.
func TestRecycledCtxNeverCascadesToOldChild(t *testing.T) {
	e := New(1)
	e.Spawn("a", func(p *Proc) {
		parent, endParent := p.WithCancel(e.Context())
		child, endChild := p.WithCancel(parent)
		endChild()
		endParent()
		parent2, endParent2 := p.WithCancel(e.Context())
		other, endOther := p.WithCancel(e.Context())
		if parent2 != parent || other != child {
			t.Fatal("the records were not reused")
		}
		endParent2()
		if other.Err() != nil {
			t.Error("canceling the parent's new tenant canceled its old child's record")
		}
		endOther()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCascadeUnlinksChildFromEndedParent: a child that outlives its
// parent's tenure (canceled by the cascade, owned by another process)
// no longer points at the parent's record, so its own late cancel does
// not touch the record's next tenant.
func TestCascadeUnlinksChildFromEndedParent(t *testing.T) {
	e := New(1)
	var parent context.Context
	var endParent context.CancelFunc
	e.Spawn("owner", func(p *Proc) {
		parent, endParent = p.WithCancel(e.Context())
		p.Yield() // the other process derives its child
		endParent()
		parent2, endParent2 := p.WithCancel(e.Context())
		if parent2 != parent {
			t.Fatal("the record was not reused")
		}
		sibling, endSibling := p.WithCancel(parent2)
		p.Yield() // the child's owner cancels its child now
		if sibling.Err() != nil {
			t.Error("the old child's cancel reached the parent's new tenant")
		}
		endSibling()
		endParent2()
	})
	e.Spawn("child-owner", func(p *Proc) {
		child, endChild := p.WithCancel(parent)
		p.Yield()
		if !errors.Is(child.Err(), context.Canceled) {
			t.Errorf("child Err = %v after its parent ended", child.Err())
		}
		p.Yield()
		endChild()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
