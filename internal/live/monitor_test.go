package live

// White-box tests of the monitor, the one wall-clock host of a live
// engine and of the gridd daemon: its timers never fire early, fire in
// (deadline, arm order), leave the heap when canceled under the lock,
// and re-arm without allocating.

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

// Timers that come due while the lock is held, and are canceled under
// it, never run: the dispatcher is already waiting on the lock when
// Cancel runs, and Cancel takes them out of the heap it will read.
// (lease.Manager cancels watchdogs this way on every release.)
func TestCanceledTimerQueuedOnTheLockDoesNotRun(t *testing.T) {
	m := NewMonitor()
	ran := 0
	m.Lock()
	var timers []core.Timer
	for i := 0; i < 8; i++ {
		timers = append(timers, m.Schedule(time.Millisecond, func() { ran++ }))
	}
	time.Sleep(10 * time.Millisecond) // they come due; the dispatcher queues on the lock
	if m.wake.Stop() {
		t.Fatal("the dispatcher had not woken: the test proved nothing")
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	m.Unlock()
	time.Sleep(10 * time.Millisecond) // let the dispatcher take the lock and find nothing due
	m.Lock()
	defer m.Unlock()
	if ran != 0 {
		t.Fatalf("%d of %d canceled callbacks ran", ran, len(timers))
	}
}

// Monitor timers never fire before their deadline, and fire in
// (deadline, arm order), the simulator's order: 40 timers due within
// 5 ms, drawn on a 250 µs grid so that several share a deadline. With
// the lock held past every deadline, they are all due at once when it
// is let go; without it, each arming races the dispatcher, and the
// deadlines under the lead, 0 among them, cross from the runtime
// timer to the nap at once.
func TestMonitorTimersFireInOrderNeverEarly(t *testing.T) {
	const n = 40
	for _, held := range []bool{true, false} {
		t.Run(map[bool]string{true: "held", false: "free"}[held], func(t *testing.T) {
			m := NewMonitor()
			rng := rand.New(rand.NewPCG(1, 2))
			type firing struct {
				i  int
				at time.Duration
			}
			var fired []firing
			timers := make([]*alarm, n)
			m.Lock()
			base := m.Elapsed()
			for i := range timers {
				d := time.Duration(rng.IntN(21)) * 250 * time.Microsecond
				timers[i] = m.NewAlarm(func() { fired = append(fired, firing{i, m.Elapsed()}) }).(*alarm)
				if held {
					timers[i].setAt(base + d) // one base: equal draws share a deadline
				} else {
					m.Unlock()
					m.Lock()
					timers[i].Set(d)
				}
			}
			if held {
				time.Sleep(7 * time.Millisecond) // every timer comes due
			}
			m.Unlock()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				m.Lock()
				k := len(fired)
				m.Unlock()
				if k == n {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d timers fired", k, n)
				}
			}
			m.Lock()
			defer m.Unlock()
			for _, f := range fired {
				if a := timers[f.i]; f.at < a.at {
					t.Errorf("timer %d ran at %v, %v before its deadline", f.i, f.at-base, a.at-f.at)
				}
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(x, y int) bool { return timers[want[x]].at < timers[want[y]].at })
			for k, f := range fired {
				if f.i != want[k] {
					t.Fatalf("firing %d was timer %d; want %d (deadline, then arm order)", k, f.i, want[k])
				}
			}
		})
	}
}

// TestMonitorAlarmAllocs is the allocation budget of re-arming an
// alarm, as a lease record re-arms its watchdog on every grant and
// renewal: none, on the daemon's monitor and on a live engine alike.
// The alarm is its own heap node.
func TestMonitorAlarmAllocs(t *testing.T) {
	e := New(1, 1)
	e.Lock()
	e.startClock() // the clock runs, as in a run, so Set arms the dispatcher
	e.Unlock()
	for name, host := range map[string]interface {
		NewAlarm(fn func()) core.Alarm
		Lock()
		Unlock()
	}{"monitor": NewMonitor(), "engine": e} {
		a := host.NewAlarm(func() { t.Error("the alarm fired") })
		host.Lock()
		allocs := testing.AllocsPerRun(100, func() {
			a.Set(time.Hour)
			a.Stop()
			a.Set(time.Hour)
		})
		a.Stop()
		a.(*alarm).m.wake.Stop()
		host.Unlock()
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per Set, Stop and Set: budget 0", name, allocs)
		}
	}
}
