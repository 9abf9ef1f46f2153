package live

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

// ts compresses 1 virtual second into 0.1 real milliseconds, so
// multi-minute virtual scenarios finish in milliseconds of test time.
const ts = 10_000

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := New(1, ts)
	var elapsed time.Duration
	e.Spawn("sleeper", func(p core.Proc) {
		p.SleepFor(10 * time.Second)
		elapsed = p.Elapsed()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 10*time.Second {
		t.Fatalf("virtual elapsed = %v, want >= 10s", elapsed)
	}
	if elapsed > 10*time.Minute {
		t.Fatalf("virtual elapsed = %v: sleep ran far past its scaled duration", elapsed)
	}
	if e.Events() == 0 {
		t.Fatal("no events counted")
	}
}

func TestSleepHonorsCancellation(t *testing.T) {
	e := New(1, ts)
	var err error
	e.Spawn("sleeper", func(p core.Proc) {
		ctx, cancel := p.WithTimeout(e.Context(), time.Second)
		defer cancel()
		err = p.Sleep(ctx, time.Hour)
	})
	if rerr := e.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sleep err = %v, want DeadlineExceeded", err)
	}
}

func TestTimerFiresAndCancels(t *testing.T) {
	e := New(1, ts)
	var fired, canceled atomic.Int64
	e.Schedule(time.Second, func() { fired.Add(1) })
	// Canceled before Run: Run does not arm it.
	e.Schedule(time.Second, func() { canceled.Add(1) }).Cancel()
	e.Spawn("driver", func(p core.Proc) {
		// Armed and canceled in one step: the callback, due at once,
		// needs the engine lock, which this process holds until it sleeps.
		e.Schedule(0, func() { canceled.Add(1) }).Cancel()
		// Run drains timers still pending when the last process exits:
		// keep the process alive for 5 virtual minutes (30ms real) so
		// the 1-virtual-second timer fires on its own, far inside the
		// window.
		p.SleepFor(5 * time.Minute)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired.Load() != 1 {
		t.Fatalf("timer fired %d times, want 1", fired.Load())
	}
	if canceled.Load() != 0 {
		t.Fatalf("canceled timer fired %d times", canceled.Load())
	}
}

// TestTimerCanceledBeforeRunIsNeverArmed: a timer canceled before Run
// leaves the monitor's heap at once, so Run has nothing of it to arm:
// it never fires, and nothing of it is pending afterwards.
func TestTimerCanceledBeforeRunIsNeverArmed(t *testing.T) {
	e := New(1, ts)
	n := e.Schedule(time.Second, func() { t.Error("canceled timer fired") })
	n.Cancel()
	if k := e.TimerHeapLen(); k != 0 {
		t.Errorf("%d timers pending after the only one was canceled", k)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.(*alarm).i != -1 {
		t.Error("a timer canceled before Run is pending after it")
	}
}

// TestSameDeadlineFiresInArmOrder: timers due at one instant fire in
// the order they were armed, the simulator's order, not in whatever
// order their goroutines win the lock. Armed before Run, twenty timers
// share one deadline exactly; a process keeps the run open past it, so
// they fire on the clock, not in the shutdown drain.
func TestSameDeadlineFiresInArmOrder(t *testing.T) {
	const n = 20
	e := New(1, 1)
	var order []int
	for i := 0; i < n; i++ {
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Spawn("keeper", func(p core.Proc) { p.SleepFor(20 * time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("%d of %d timers fired", len(order), n)
	}
	for k, i := range order {
		if i != k {
			t.Fatalf("firing order %v; want arm order", order)
		}
	}
}

// TestTimersNeverEarly: at timescale 1, Sleep, SleepFor, WithTimeout
// and Schedule never return or fire before their deadline, for 0 and
// for durations shorter than the dispatcher's lead. (No upper bound:
// that would be a wall-clock band on a shared host.)
func TestTimersNeverEarly(t *testing.T) {
	durations := []time.Duration{0, 50 * time.Microsecond, 300 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}
	waits := map[string]func(p core.Proc, d time.Duration) error{
		"Sleep": func(p core.Proc, d time.Duration) error {
			return p.Sleep(context.Background(), d)
		},
		"SleepFor": func(p core.Proc, d time.Duration) error {
			p.SleepFor(d)
			return nil
		},
		"WithTimeout": func(p core.Proc, d time.Duration) error {
			ctx, cancel := p.WithTimeout(context.Background(), d)
			defer cancel()
			if err := p.Hang(ctx); !errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("Hang returned %v, want context.DeadlineExceeded", err)
			}
			return nil
		},
		"Schedule": func(p core.Proc, d time.Duration) error {
			ctx, cancel := p.WithCancel(context.Background())
			p.Schedule(d, cancel)
			_ = p.Hang(ctx)
			return nil
		},
	}
	for name, wait := range waits {
		t.Run(name, func(t *testing.T) {
			e := New(1, 1)
			e.Spawn("waiter", func(p core.Proc) {
				for rep := 0; rep < 10; rep++ {
					for _, d := range durations {
						before := p.Elapsed()
						if err := wait(p, d); err != nil {
							t.Errorf("%v: %v", d, err)
						}
						if took := p.Elapsed() - before; took < d {
							t.Errorf("%v: returned after %v, before its deadline", d, took)
						}
					}
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestResourceFIFOUnderContention(t *testing.T) {
	e := New(1, ts)
	r := lease.New(e, "server", 1, 0)
	var served atomic.Int64
	for i := 0; i < 8; i++ {
		e.Spawn("client", func(p core.Proc) {
			if err := r.Take(p, e.Context(), 1); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			p.SleepFor(time.Second)
			r.Put(1)
			served.Add(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if served.Load() != 8 {
		t.Fatalf("served %d, want 8", served.Load())
	}
	if r.Sense().InUse != 0 || r.QueueLen() != 0 {
		t.Fatalf("inUse=%d queue=%d after run", r.Sense().InUse, r.QueueLen())
	}
}

func TestResourceAcquireTimesOut(t *testing.T) {
	e := New(1, ts)
	r := lease.New(e, "server", 1, 0)
	var werr error
	e.Spawn("holder", func(p core.Proc) {
		if err := r.Take(p, e.Context(), 1); err != nil {
			t.Errorf("holder acquire: %v", err)
			return
		}
		p.SleepFor(time.Minute)
		r.Put(1)
	})
	e.Spawn("waiter", func(p core.Proc) {
		p.SleepFor(time.Second) // let the holder in first
		ctx, cancel := p.WithTimeout(e.Context(), 5*time.Second)
		defer cancel()
		werr = r.Take(p, ctx, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", werr)
	}
	if r.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", r.Timeouts)
	}
}

func TestParallelRunsBranches(t *testing.T) {
	e := New(1, ts)
	var ran atomic.Int64
	boom := errors.New("boom")
	e.Spawn("parent", func(p core.Proc) {
		fns := make([]func(context.Context, core.Runtime) error, 5)
		for i := range fns {
			i := i
			fns[i] = func(ctx context.Context, rt core.Runtime) error {
				if err := rt.Sleep(ctx, time.Second); err != nil {
					return err
				}
				ran.Add(1)
				if i == 3 {
					return boom
				}
				return nil
			}
		}
		errs := p.Parallel(e.Context(), 2, fns)
		for i, err := range errs {
			if i == 3 && !errors.Is(err, boom) {
				t.Errorf("branch 3 err = %v, want boom", err)
			}
			if i != 3 && err != nil {
				t.Errorf("branch %d err = %v", i, err)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatalf("ran %d branches, want 5", ran.Load())
	}
}

// TestBlockingReleasesMonitor: a process whose fn waits inside
// Engine.Blocking must not hold the engine lock, or a process that
// needs the lock to end the wait can never run. b is launched while a
// holds the lock, so the only way b runs is through a's Blocking
// letting go.
func TestBlockingReleasesMonitor(t *testing.T) {
	e := New(1, 1)
	release := make(chan struct{})
	e.Spawn("a", func(p core.Proc) {
		lp := p.(*Proc)
		lp.Engine().Spawn("b", func(core.Proc) { close(release) })
		lp.Engine().Blocking(func() { <-release })
	})
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned: Blocking kept the engine lock while fn waited")
	}
}

// TestEngineBlockingReleasesMonitorInTimer: a timer callback waiting
// inside Engine.Blocking must not hold the engine lock either. b is
// spawned by the callback, under the lock, so the only way b runs is
// through the callback's Blocking letting go; a keeps the run open
// until the callback has finished.
func TestEngineBlockingReleasesMonitorInTimer(t *testing.T) {
	e := New(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	e.Spawn("a", func(p core.Proc) { _ = p.Hang(ctx) })
	e.Schedule(time.Millisecond, func() {
		e.Spawn("b", func(core.Proc) { close(release) })
		e.Blocking(func() { <-release })
		cancel()
	})
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned: a timer callback's Blocking kept the engine lock")
	}
}

// TestRunWaitsForTimerInsideBlocking: Run does not shut down while a
// timer callback is inside Blocking, even when the last process has
// returned meanwhile. The callback finishes under the lock, before Run
// returns; a shutdown that did not wait would return first and leave
// the callback writing engine state after the run.
func TestRunWaitsForTimerInsideBlocking(t *testing.T) {
	e := New(1, 1)
	inside := make(chan struct{})
	var finished atomic.Bool
	e.Spawn("a", func(core.Proc) { e.Blocking(func() { <-inside }) })
	e.Schedule(time.Millisecond, func() {
		e.Blocking(func() {
			close(inside) // a returns now, with the callback still out
			time.Sleep(50 * time.Millisecond)
		})
		e.Schedule(time.Hour, func() {}) // before the drain: it fires there
		finished.Store(true)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Run returned while a timer callback was inside Blocking")
	}
	if n := e.Events(); n != 3 {
		t.Errorf("events = %d, want 3: a, the callback, and the timer it scheduled, drained", n)
	}
}

// TestLeaseWatchdogOnLiveBackend drives the lease manager — written
// against core.Backend — on the wall-clock engine: a wedged holder must
// be revoked after its quantum and the queued waiter granted.
func TestLeaseWatchdogOnLiveBackend(t *testing.T) {
	e := New(1, ts)
	m := lease.New(e, "res", 1, 10*time.Second)
	var waiterGranted atomic.Bool
	e.Spawn("stuck", func(p core.Proc) {
		l, err := m.Acquire(p, e.Context(), "stuck", 1)
		if err != nil {
			t.Errorf("stuck acquire: %v", err)
			return
		}
		_ = p.Hang(l.Ctx()) // wedged until the watchdog revokes us
		if !l.Revoked() {
			t.Error("lease not revoked")
		}
	})
	e.Spawn("waiter", func(p core.Proc) {
		p.SleepFor(time.Second)
		l, err := m.Acquire(p, e.Context(), "waiter", 1)
		if err != nil {
			t.Errorf("waiter acquire: %v", err)
			return
		}
		waiterGranted.Store(true)
		l.Release()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Revokes != 1 {
		t.Fatalf("Revokes = %d, want 1", m.Revokes)
	}
	if !waiterGranted.Load() {
		t.Fatal("waiter never granted after revocation")
	}
}

// TestTryOnLiveBackend runs the core retry machinery end-to-end on the
// live runtime: a try with a virtual-time budget must exhaust in scaled
// real time, not the full virtual duration.
func TestTryOnLiveBackend(t *testing.T) {
	e := New(1, ts)
	start := time.Now()
	var terr error
	attempts := 0
	e.Spawn("client", func(p core.Proc) {
		terr = core.Try(e.Context(), p, core.For(time.Minute), core.TryConfig{}, func(ctx context.Context) error {
			attempts++
			if err := p.Sleep(ctx, 5*time.Second); err != nil {
				return err
			}
			return errors.New("always fails")
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var ex *core.ExhaustedError
	if !errors.As(terr, &ex) {
		t.Fatalf("try err = %v, want ExhaustedError", terr)
	}
	if attempts == 0 {
		t.Fatal("no attempts ran")
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("1-minute virtual try took %v real time: timescale not applied", real)
	}
}

// dropOnce is a scripted injector for the shutdown-drain test: it drops
// exactly one message, then reports a clean channel.
type dropOnce struct{ armed bool }

func (d *dropOnce) Inject(string) core.Fault {
	if d.armed {
		d.armed = false
		return core.Fault{Drop: true}
	}
	return core.Fault{}
}

// TestShutdownDrainsPendingTimers: Run must fire outstanding timer
// callbacks before returning, the way the simulator runs its event
// queue to quiescence. The regression this pins: a lease release
// dropped by the wire leaves a zombie booking whose only healer is the
// watchdog timer — if shutdown silently discards that timer, the units
// stay charged forever and every post-run inspection of the manager
// sees leaked capacity.
func TestShutdownDrainsPendingTimers(t *testing.T) {
	e := New(1, ts)
	m := lease.New(e, "res", 1, 10*time.Minute)
	inj := &dropOnce{}
	m.SetWire(inj, "wire", true)
	var fired atomic.Bool
	e.Schedule(time.Hour, func() { fired.Store(true) })
	// The drain fires in (deadline, arm order): deadlines armed before
	// Run count from it, so the ties are exact.
	var drained []int
	for i, d := range []time.Duration{3, 1, 2, 1, 3, 2} {
		e.Schedule(d*time.Hour, func() { drained = append(drained, i) })
	}
	e.Spawn("holder", func(p core.Proc) {
		l, err := m.Acquire(p, e.Context(), "holder", 1)
		if err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		p.SleepFor(time.Minute)
		inj.armed = true
		l.Release() // dropped: the manager never hears the end
		if m.Sense().InUse != 1 {
			t.Errorf("inUse = %d right after dropped release, want 1 (zombie)", m.Sense().InUse)
		}
		// Exit well before the 10-minute watchdog deadline: the reclaim
		// timer is still pending when the last process unwinds.
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Error("pending timer callback was dropped at shutdown, not drained")
	}
	if got, want := fmt.Sprint(drained), "[1 3 2 5 0 4]"; got != want {
		t.Errorf("the drain fired %s; want %s, (deadline, arm order)", got, want)
	}
	if m.Sense().InUse != 0 {
		t.Errorf("inUse = %d after Run, want 0: the dropped release's watchdog never reclaimed", m.Sense().InUse)
	}
	if m.Outstanding() != 0 {
		t.Errorf("outstanding = %d after Run, want 0", m.Outstanding())
	}
	if m.Revokes != 1 {
		t.Errorf("Revokes = %d, want 1 (the shutdown-drained watchdog)", m.Revokes)
	}
	if e.TimerHeapLen() != 0 {
		t.Errorf("%d timers still pending after Run", e.TimerHeapLen())
	}
}

// TestHorizonAnchoredToRun: a deadline made before Run counts from the
// same instant as Elapsed. Twenty real milliseconds of set-up — two
// whole windows at this timescale — must neither expire the context
// before Run nor end the run short of its horizon on the engine's own
// clock.
func TestHorizonAnchoredToRun(t *testing.T) {
	e := New(1, 100)
	const horizon = time.Second // 10ms of real time
	ctx, cancel := e.WithTimeout(e.Context(), horizon)
	defer cancel()
	time.Sleep(20 * time.Millisecond)
	if err := ctx.Err(); err != nil {
		t.Fatalf("context ended during set-up, before Run: %v", err)
	}
	var err error
	var at time.Duration
	e.Spawn("waiter", func(p core.Proc) {
		err = p.Hang(ctx)
		at = p.Elapsed()
	})
	if rerr := e.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Hang returned %v, want context.DeadlineExceeded", err)
	}
	if at < horizon {
		t.Errorf("context expired at %v of a %v horizon", at, horizon)
	}
	if dl, ok := ctx.Deadline(); !ok || dl.IsZero() {
		t.Errorf("Deadline() = %v, %v after Run; want the armed deadline", dl, ok)
	}
}

// TestPreRunDeadlineEndsOnce covers the other ways a deadline made
// before Run can end: its own cancel, and its parent's, whichever comes
// first; Run then has nothing to arm.
func TestPreRunDeadlineEndsOnce(t *testing.T) {
	e := New(1, ts)
	parent, cancelParent := e.WithCancel(e.Context())
	own, cancelOwn := e.WithTimeout(parent, time.Hour)
	inherited, cancelInherited := e.WithTimeout(parent, time.Hour)
	defer cancelInherited()
	cancelOwn()
	cancelParent()
	<-inherited.Done()
	cancelOwn() // idempotent, also after the parent ended
	for name, ctx := range map[string]context.Context{"own": own, "inherited": inherited} {
		if err := ctx.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Err() = %v, want context.Canceled", name, err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := own.Deadline(); ok {
		t.Error("a context canceled before Run was armed by it")
	}
}

// TestDeadlineCanceledOffTheLock: a deadline context's cancel func may
// run on any goroutine, without the engine lock. It ends the context at
// once, and its alarm leaves the heap at the next sweep, under the lock
// (run with -race).
func TestDeadlineCanceledOffTheLock(t *testing.T) {
	e := New(1, ts)
	e.Spawn("owner", func(p core.Proc) {
		var ctxs []context.Context
		var cancels []context.CancelFunc
		for i := 0; i < 20; i++ {
			ctx, cancel := p.WithTimeout(context.Background(), time.Hour)
			ctxs, cancels = append(ctxs, ctx), append(cancels, cancel)
		}
		done := make(chan struct{})
		go func() {
			for _, cancel := range cancels {
				cancel()
			}
			close(done)
		}()
		e.Blocking(func() { <-done })
		for i, ctx := range ctxs {
			if err := ctx.Err(); !errors.Is(err, context.Canceled) {
				t.Errorf("context %d: Err() = %v, want context.Canceled", i, err)
			}
		}
		if k := e.TimerHeapLen(); k != 0 {
			t.Errorf("%d timers pending after every deadline was canceled", k)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
