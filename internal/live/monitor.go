package live

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"repro/internal/core"
)

// Monitor is the one wall-clock host: one mutex, a clock, and one
// alarm. A live Engine embeds it, and the gridd daemon hosts on one
// (NewMonitor). It is to them what the token is to the simulator: code
// that touches shared state holds the lock, and gives it up across
// every wait (Hang, a sleep, Engine.Blocking).
//
// The clock reads 0 until it starts (NewMonitor starts it at once,
// Engine.Run when the run starts) and then runs timescale times real
// time. Every timer is a node of one heap in (deadline, arm order),
// kept under the lock; one armed before the start counts from it. One
// runtime timer wakes a single dispatcher lead before the earliest
// deadline; the dispatcher, lock given up, naps out the rest
// (monitor_linux.go says why there is a rest), then fires every due
// timer in heap order under the lock. So:
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
//
// The dispatcher runs the callbacks, so a callback that waits (inside
// Engine.Blocking) holds back every timer that comes due meanwhile.
type Monitor struct {
	sync.Mutex
	timescale float64
	start     time.Time
	started   bool
	closed    bool  // shut down: arming is inert
	events    int64 // timers fired

	alarms      alarms      // pending, earliest (deadline, arm order) first
	seq         uint64      // arm order
	wake        *time.Timer // runs dispatch; nil until the first arming after the start
	dispatching bool        // a dispatcher holds the alarm; nobody else touches wake

	// ended holds the alarms of deadline contexts that ended, maybe off
	// the lock; the next sweep takes them out of the heap.
	endMu sync.Mutex
	ended []*alarm
}

// NewMonitor returns a monitor whose clock runs at real time from now:
// a daemon's host, which has no run to wait for.
func NewMonitor() *Monitor {
	m := &Monitor{timescale: 1}
	m.startClock()
	return m
}

// Elapsed reports the monitor's clock: zero before the start, then
// timescale times the real time since.
func (m *Monitor) Elapsed() time.Duration {
	if !m.started {
		return 0
	}
	return time.Duration(float64(time.Since(m.start)) * m.timescale)
}

// toReal converts a duration on the clock to the real time it takes.
func (m *Monitor) toReal(d time.Duration) time.Duration {
	return time.Duration(float64(d) / m.timescale)
}

// startClock starts the clock and wakes the dispatcher toward the
// earliest timer armed before it. Lock held.
func (m *Monitor) startClock() {
	m.start, m.started = time.Now(), true
	if len(m.alarms) > 0 {
		m.arm(m.alarms[0].at)
	}
}

// shutdown fires every pending timer in (deadline, arm order) without
// waiting for its deadline; anything armed from then on, from those
// callbacks too, is inert. Lock held.
func (m *Monitor) shutdown() {
	m.closed = true
	if m.wake != nil {
		m.wake.Stop()
	}
	m.sweep()
	for len(m.alarms) > 0 {
		m.events++
		heap.Pop(&m.alarms).(*alarm).fn()
	}
}

// Schedule runs fn under the lock d from now unless canceled first.
func (m *Monitor) Schedule(d time.Duration, fn func()) core.Timer {
	a := &alarm{m: m, fn: fn, i: -1}
	a.Set(d)
	return a
}

// NewAlarm returns a timer its owner re-arms in place: the heap node is
// the alarm, so Set and Stop allocate nothing.
func (m *Monitor) NewAlarm(fn func()) core.Alarm { return &alarm{m: m, fn: fn, i: -1} }

// WithCancel derives an explicitly cancelable child context.
func (m *Monitor) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(parent)
}

// Hang parks the calling goroutine, lock given up, until ctx ends.
func (m *Monitor) Hang(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.Unlock()
	<-ctx.Done()
	m.Lock()
	return ctx.Err()
}

// WithTimeout derives a child context that ends when the clock reaches
// d from now; made before the start, it counts from the start. Its
// alarm is armed under the lock, like any timer. Its cancel func, and
// the parent's end, may run on any goroutine, so they only end the
// context and queue its alarm for the next sweep, which takes it out
// of the heap under the lock.
func (m *Monitor) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c := &deadlineCtx{Context: parent, m: m, done: make(chan struct{})}
	c.alarm = alarm{m: m, fn: func() { c.end(context.DeadlineExceeded) }, i: -1}
	c.mu.Lock() // an already-ended parent calls end at once, on another goroutine
	c.stopParent = context.AfterFunc(parent, func() { c.end(parent.Err()) })
	c.mu.Unlock()
	c.alarm.Set(d)
	return c, func() { c.end(context.Canceled) }
}

// deadlineCtx is a context that ends at a deadline on the monitor's
// clock.
type deadlineCtx struct {
	context.Context // the parent
	m               *Monitor
	alarm           alarm
	done            chan struct{}
	stopParent      func() bool

	mu    sync.Mutex
	err   error
	early bool // ended before the clock started
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Deadline is the wall-clock instant the clock reaches the deadline, or
// the parent's if that is sooner. A context that ended before the clock
// started never had one.
func (c *deadlineCtx) Deadline() (time.Time, bool) {
	pd, pok := c.Context.Deadline()
	c.mu.Lock()
	early := c.early
	c.mu.Unlock()
	if !c.m.started || early {
		return pd, pok
	}
	d := c.m.start.Add(c.m.toReal(c.alarm.at))
	if pok && pd.Before(d) {
		return pd, true
	}
	return d, true
}

// end ends the context with err; the first end wins.
func (c *deadlineCtx) end(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err, c.early = err, !c.m.started
	close(c.done)
	c.stopParent()
	c.m.endMu.Lock()
	c.m.ended = append(c.m.ended, &c.alarm)
	c.m.endMu.Unlock()
}

// sweep takes the alarms of ended deadline contexts out of the heap.
// Lock held.
func (m *Monitor) sweep() {
	m.endMu.Lock()
	ended := m.ended
	m.ended = nil
	m.endMu.Unlock()
	for _, a := range ended {
		a.Stop()
	}
}

// alarm is a monitor timer: one node of the heap, which keeps its
// callback across armings. Every method runs under the lock.
type alarm struct {
	m   *Monitor
	fn  func()
	at  time.Duration // deadline on the monitor's clock
	seq uint64        // arm order, the tie-break
	i   int           // index in m.alarms; -1 when not pending
}

func (a *alarm) Set(d time.Duration) { a.setAt(a.m.Elapsed() + max(d, 0)) }

// setAt arms a for the deadline at, canceling any pending firing.
func (a *alarm) setAt(at time.Duration) {
	m := a.m
	a.Stop()
	if m.closed {
		return
	}
	m.seq++
	a.at, a.seq = at, m.seq
	heap.Push(&m.alarms, a)
	if a.i == 0 && m.started && !m.dispatching {
		m.arm(at)
	}
}

// Stop leaves the runtime timer as it is: a wake-up that finds nothing
// due re-arms toward the new earliest deadline.
func (a *alarm) Stop() {
	if a.i >= 0 {
		heap.Remove(&a.m.alarms, a.i)
	}
}

func (a *alarm) Cancel() { a.Stop() }

// arm sets the runtime timer to wake the dispatcher lead before at.
func (m *Monitor) arm(at time.Duration) {
	d := m.toReal(at-m.Elapsed()) - lead
	if m.wake == nil {
		m.wake = time.AfterFunc(d, m.dispatch)
	} else {
		m.wake.Reset(d)
	}
}

// dispatch is what the runtime timer runs: it naps out what is left
// before the earliest deadline, fires every due timer, and re-arms the
// runtime timer toward the next.
func (m *Monitor) dispatch() {
	m.Lock()
	defer m.Unlock()
	if m.dispatching {
		return
	}
	m.dispatching = true
	m.sweep()
	for len(m.alarms) > 0 {
		at, now := m.alarms[0].at, m.Elapsed()
		if at > now {
			rest := m.toReal(at - now)
			if rest > lead {
				break
			}
			// Meanwhile the head may be canceled or an earlier one armed:
			// both are read again after the nap.
			m.Unlock()
			nap(rest)
			m.Lock()
			continue
		}
		m.events++
		heap.Pop(&m.alarms).(*alarm).fn()
	}
	m.dispatching = false
	if len(m.alarms) > 0 {
		m.arm(m.alarms[0].at)
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
