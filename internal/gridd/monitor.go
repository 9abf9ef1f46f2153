package gridd

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// monitor is the daemon's host: one mutex, the wall clock since
// construction, and one alarm. It is to the daemon what the engine
// token is to the simulator. It is also the parker of every HTTP
// request: a long poll that has to queue gives the lock up until its
// wait ends.
//
// Its timers (watchdogs, window ends, long-poll expiries) are nodes of
// one heap in (deadline, arm order), kept under the lock. One runtime
// timer wakes a single dispatcher lead before the earliest deadline;
// the dispatcher, lock given up, naps out the rest (monitor_linux.go
// says why there is a rest), then fires every due timer in heap order
// under the lock. So:
//   - no timer runs before Elapsed reaches its deadline;
//   - timers due together run in (deadline, arm order), the
//     simulator's order;
//   - Cancel takes the node out of the heap under the lock, so a timer
//     canceled after it came due never runs;
//   - at most one goroutine, and so one OS thread, per monitor is ever
//     in the nap: only the dispatcher that set dispatching naps, and
//     any other wake-up that finds it set returns at once;
//   - a timer armed while the dispatcher naps toward a later deadline
//     runs when that nap ends, at most one lead late. Every other timer
//     pays only the runtime's wake-up latency past its deadline.
type monitor struct {
	sync.Mutex
	start time.Time

	timers      alarms      // pending, earliest (deadline, arm order) first
	seq         uint64      // arm order
	wake        *time.Timer // runs dispatch; nil until the first arming
	dispatching bool        // a dispatcher holds the alarm; nobody else touches wake
}

// Elapsed is the daemon clock: real time since construction.
func (m *monitor) Elapsed() time.Duration { return time.Since(m.start) }

func (m *monitor) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(parent)
}

// Schedule runs fn under the lock d from now unless canceled first.
func (m *monitor) Schedule(d time.Duration, fn func()) core.Timer {
	a := &alarm{m: m, fn: fn, i: -1}
	a.Set(d)
	return a
}

// NewAlarm returns a timer its owner re-arms in place: the heap node is
// the alarm, so Set and Stop allocate nothing.
func (m *monitor) NewAlarm(fn func()) core.Alarm { return &alarm{m: m, fn: fn, i: -1} }

// Hang parks the calling goroutine, lock given up, until ctx ends.
func (m *monitor) Hang(ctx context.Context) error {
	m.Unlock()
	<-ctx.Done()
	m.Lock()
	return ctx.Err()
}

func (*monitor) Tracer() *trace.Client { return nil }

// alarm is a monitor timer: one node of the heap, which keeps its
// callback across armings. Every method runs under the lock.
type alarm struct {
	m   *monitor
	fn  func()
	at  time.Duration // deadline on the monitor's clock
	seq uint64        // arm order, the tie-break
	i   int           // index in m.timers; -1 when not pending
}

func (a *alarm) Set(d time.Duration) { a.setAt(a.m.Elapsed() + max(d, 0)) }

// setAt arms a for the deadline at, canceling any pending firing.
func (a *alarm) setAt(at time.Duration) {
	m := a.m
	a.Stop()
	m.seq++
	a.at, a.seq = at, m.seq
	heap.Push(&m.timers, a)
	if a.i == 0 && !m.dispatching {
		m.arm(at)
	}
}

// Stop leaves the runtime timer as it is: a wake-up that finds nothing
// due re-arms toward the new earliest deadline.
func (a *alarm) Stop() {
	if a.i >= 0 {
		heap.Remove(&a.m.timers, a.i)
	}
}

func (a *alarm) Cancel() { a.Stop() }

// arm sets the runtime timer to wake the dispatcher lead before at.
func (m *monitor) arm(at time.Duration) {
	d := at - lead - m.Elapsed()
	if m.wake == nil {
		m.wake = time.AfterFunc(d, m.dispatch)
	} else {
		m.wake.Reset(d)
	}
}

// dispatch is what the runtime timer runs: it naps out what is left
// before the earliest deadline, fires every due timer, and re-arms the
// runtime timer toward the next.
func (m *monitor) dispatch() {
	m.Lock()
	defer m.Unlock()
	if m.dispatching {
		return
	}
	m.dispatching = true
	for len(m.timers) > 0 {
		at, now := m.timers[0].at, m.Elapsed()
		if at-now > lead {
			break
		}
		if at > now {
			// Meanwhile the head may be canceled or an earlier one armed:
			// both are read again after the nap.
			m.Unlock()
			nap(at - now)
			m.Lock()
			continue
		}
		heap.Pop(&m.timers).(*alarm).fn()
	}
	m.dispatching = false
	if len(m.timers) > 0 {
		m.arm(m.timers[0].at)
	}
}

// alarms is the monitor's heap (container/heap); each alarm keeps its
// index.
type alarms []*alarm

func (h alarms) Len() int { return len(h) }

func (h alarms) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}

func (h alarms) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].i, h[j].i = i, j
}

func (h *alarms) Push(x any) {
	a := x.(*alarm)
	a.i = len(*h)
	*h = append(*h, a)
}

func (h *alarms) Pop() any {
	old := *h
	n := len(old) - 1
	a := old[n]
	old[n] = nil
	*h = old[:n]
	a.i = -1
	return a
}
