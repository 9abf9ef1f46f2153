// Package live is the wall-clock backend: it runs the same scenarios as
// the deterministic simulator (internal/sim) on real goroutines, real
// timers, and real mutex contention, under compressed time.
//
// Where the simulator serializes processes with a token handoff, the
// live engine serializes them with one global mutex — a monitor. A
// process holds the engine lock while it executes substrate code and
// releases it across every blocking operation (Sleep, Hang, Yield; a
// lease.Manager waiter parks in Hang), so the shared state invariants
// the substrates were written against ("engine methods run under the
// token") carry over unchanged, while the interleaving between blocking
// points is decided by the Go scheduler and the wall clock rather than
// by a seed. Runs
// are therefore not reproducible; the differential harness
// (internal/expt) asserts distributional properties with tolerance
// bands instead of golden outputs.
//
// Compressed time: every virtual duration d that crosses the backend
// boundary (sleeps, timeouts, timer deadlines) runs for d/timescale of
// real time, and Elapsed reports real time multiplied back, so a
// 5-minute paper window finishes in 300 ms at timescale 1000 and all
// virtual-time observables (throughput per virtual second, trace
// timestamps) remain directly comparable to the simulator's.
package live

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Engine is the wall-clock implementation of core.Backend. Create one
// with New, add processes with Spawn, then call Run, which returns when
// every process has. Before Run, Engine methods may only be called from
// the constructing goroutine; afterwards they follow the monitor
// discipline (called with the engine lock held, i.e. from process code
// or timer callbacks).
type Engine struct {
	mu        sync.Mutex
	rng       *rand.Rand
	timescale float64

	start   time.Time
	started bool
	closed  bool
	events  int64
	liveN   int
	// blocking counts callers inside Blocking, with the lock let go;
	// quiet wakes Run when it and liveN are both 0.
	blocking int
	quiet    sync.Cond

	pendingProcs     []*pendingProc
	pendingTimers    []*timerNode
	pendingDeadlines []*runCtx
	timers           map[*timerNode]struct{}
	timerSeq         uint64

	root       context.Context
	rootCancel context.CancelFunc
}

type pendingProc struct {
	p  *Proc
	fn func(p core.Proc)
}

var _ core.Backend = (*Engine)(nil)

// New returns an engine whose random source is seeded with seed and
// whose virtual clock runs timescale times faster than the wall clock
// (timescale <= 0 selects 1, i.e. uncompressed real time). Unlike the
// simulator, an identical seed does not reproduce a run — only the
// random draws are deterministic, not the interleaving.
func New(seed int64, timescale float64) *Engine {
	if timescale <= 0 {
		timescale = 1
	}
	e := &Engine{
		rng:       rand.New(rand.NewSource(seed)),
		timescale: timescale,
		timers:    make(map[*timerNode]struct{}),
	}
	e.quiet.L = &e.mu
	e.root, e.rootCancel = context.WithCancel(context.Background())
	return e
}

// toReal converts a virtual duration to the wall-clock duration it runs
// for. Sub-nanosecond results round up to 1ns so positive virtual waits
// never become busy spins.
func (e *Engine) toReal(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	rd := time.Duration(float64(d) / e.timescale)
	if rd <= 0 {
		rd = 1
	}
	return rd
}

// Elapsed reports virtual time since Run started (zero before then).
func (e *Engine) Elapsed() time.Duration {
	if !e.started {
		return 0
	}
	return time.Duration(float64(time.Since(e.start)) * e.timescale)
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Time { return core.Epoch.Add(e.Elapsed()) }

// Events reports how many scheduling steps (process launches and timer
// firings) the engine has executed.
func (e *Engine) Events() int64 { return e.events }

// RunQueueLen reports the number of live processes. The live engine
// has no run queue — goroutines are runnable whenever the scheduler
// says so — so the closest observable analogue is the live-process
// count (observability; engine lock held).
func (e *Engine) RunQueueLen() int { return e.liveN }

// TimerHeapLen reports the number of pending timers (observability;
// engine lock held).
func (e *Engine) TimerHeapLen() int { return len(e.timers) }

// Rand returns a uniform value in [0,1) from the engine's seeded
// source. Must be called under the engine lock (or before Run).
func (e *Engine) Rand() float64 { return e.rng.Float64() }

// Context returns the root context for the run.
func (e *Engine) Context() context.Context { return e.root }

// WithCancel derives an explicitly cancelable child context.
func (e *Engine) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(parent)
}

// WithTimeout derives a child context canceled after d of virtual time.
// Before Run the virtual clock has not started, so neither has the
// deadline: like a timer scheduled before Run it is armed when Run
// starts, and the context expires at Elapsed() >= d however much real
// time set-up took. (Counted from construction instead, a run's horizon
// would end before its clock said so.)
func (e *Engine) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if e.started {
		return context.WithTimeout(parent, e.toReal(d))
	}
	c := &runCtx{Context: parent, done: make(chan struct{}), delay: e.toReal(d)}
	c.mu.Lock() // an already-canceled parent calls end at once, on another goroutine
	c.stopParent = context.AfterFunc(parent, func() { c.end(parent.Err()) })
	c.mu.Unlock()
	e.pendingDeadlines = append(e.pendingDeadlines, c)
	return c, func() { c.end(context.Canceled) }
}

// runCtx is a deadline context made before Run: a context.WithTimeout
// whose clock starts when Run arms it.
type runCtx struct {
	context.Context // the parent
	done            chan struct{}
	delay           time.Duration
	stopParent      func() bool

	mu       sync.Mutex
	err      error
	deadline time.Time   // zero until armed
	timer    *time.Timer // nil until armed
}

func (c *runCtx) Done() <-chan struct{} { return c.done }

func (c *runCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *runCtx) Deadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pd, ok := c.Context.Deadline(); ok && (c.deadline.IsZero() || pd.Before(c.deadline)) {
		return pd, true
	}
	return c.deadline, !c.deadline.IsZero()
}

// arm starts the deadline's wall-clock timer, unless the context has
// ended already.
func (c *runCtx) arm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.deadline = time.Now().Add(c.delay)
		c.timer = time.AfterFunc(c.delay, func() { c.end(context.DeadlineExceeded) })
	}
}

// end cancels the context with err; the first end wins.
func (c *runCtx) end(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err = err
	close(c.done)
	c.stopParent()
	if c.timer != nil {
		c.timer.Stop()
	}
}

// Spawn creates a new process executing fn. Before Run it is queued;
// afterwards (under the engine lock) it starts immediately.
func (e *Engine) Spawn(name string, fn func(p core.Proc)) {
	p := &Proc{eng: e, name: name}
	if !e.started {
		e.pendingProcs = append(e.pendingProcs, &pendingProc{p: p, fn: fn})
		return
	}
	e.launch(p, fn)
}

// launch starts the process goroutine. Callers must hold the engine
// lock (Run holds it while launching the pending set).
func (e *Engine) launch(p *Proc, fn func(p core.Proc)) {
	e.events++
	e.liveN++
	go func() {
		e.mu.Lock()
		fn(p)
		e.liveN--
		e.wake()
		e.mu.Unlock()
	}()
}

// wake tells Run that the run may be over: no process is live and no
// timer callback is inside Blocking. Engine lock held.
func (e *Engine) wake() {
	if e.liveN == 0 && e.blocking == 0 {
		e.quiet.Broadcast()
	}
}

// Schedule arranges fn to run at virtual time now+d under the engine
// lock, returning a cancelable handle. Canceling under the lock is
// race-free against the callback. After the run has been shut down the
// handle is inert: the shutdown drain has already fired everything that
// was going to fire.
func (e *Engine) Schedule(d time.Duration, fn func()) core.Timer {
	n := &timerNode{eng: e, fn: fn, delay: e.toReal(d), seq: e.timerSeq}
	e.timerSeq++
	if e.closed {
		n.stopped = true
		return n
	}
	e.timers[n] = struct{}{}
	if !e.started {
		e.pendingTimers = append(e.pendingTimers, n)
		return n
	}
	n.arm()
	return n
}

// NewAlarm implements core.Backend over Schedule.
func (e *Engine) NewAlarm(fn func()) core.Alarm { return core.AlarmOf(e.Schedule, fn) }

// Run launches every pending process, timer and deadline, waits for all
// processes (including ones spawned later) to return and for every
// timer callback inside Blocking to come back, then drains outstanding
// timers: each pending callback fires exactly once, in deadline order,
// before Run returns. The simulator runs its event queue to quiescence,
// so a lease watchdog pending when the last process exits still fires
// and reclaims the zombie's units; without the drain the live backend
// would silently drop those timers and leak whatever bookkeeping they
// were about to heal. Callbacks run under the engine lock; anything
// they re-schedule lands after close and is inert. Run always returns
// nil; a scenario that never unwinds blocks here, so bound scenarios
// with context deadlines as the simulator's callers already do.
func (e *Engine) Run() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("live: Run called twice")
	}
	e.started = true
	e.start = time.Now()
	for _, c := range e.pendingDeadlines {
		c.arm()
	}
	e.pendingDeadlines = nil
	for _, n := range e.pendingTimers {
		if !n.stopped { // canceled before Run: nothing to arm
			n.arm()
		}
	}
	e.pendingTimers = nil
	pending := e.pendingProcs
	e.pendingProcs = nil
	for _, pp := range pending {
		e.launch(pp.p, pp.fn)
	}
	for e.liveN > 0 || e.blocking > 0 {
		e.quiet.Wait()
	}
	e.closed = true // re-scheduling from a drained callback is inert
	drain := make([]*timerNode, 0, len(e.timers))
	for n := range e.timers {
		drain = append(drain, n)
	}
	sort.Slice(drain, func(i, j int) bool {
		if !drain[i].deadline.Equal(drain[j].deadline) {
			return drain[i].deadline.Before(drain[j].deadline)
		}
		return drain[i].seq < drain[j].seq
	})
	for _, n := range drain {
		if n.stopped { // canceled by an earlier drained callback
			continue
		}
		n.stopped = true
		delete(e.timers, n)
		if n.t != nil {
			n.t.Stop()
		}
		e.events++
		n.fn()
	}
	e.timers = nil
	e.mu.Unlock()
	e.rootCancel()
	return nil
}

// Blocking releases the engine lock, runs fn, and re-acquires the lock
// before returning. Substrate code that performs a real blocking
// operation — a socket round-trip to a gridd daemon, a disk read —
// must wrap it here, exactly as Sleep and Hang do internally, or the
// whole monitor stalls for the call's wall-clock duration. It serves
// process code and timer callbacks alike, and Run does not shut down
// while a caller is inside. fn runs outside the monitor: it must not
// touch engine-locked state. Before Run starts, and in its shutdown
// drain (which holds the lock throughout), no other process or timer
// can want the lock, and fn simply runs.
func (e *Engine) Blocking(fn func()) {
	if !e.started || e.closed {
		fn()
		return
	}
	e.blocking++
	e.mu.Unlock()
	fn()
	e.mu.Lock()
	e.blocking--
	e.wake()
}

// Live reports the number of processes that have started and not yet
// returned. Must be called under the engine lock.
func (e *Engine) Live() int { return e.liveN }

// timerNode is one scheduled callback. Cancel must be called under the
// engine lock; the callback itself takes the lock before running, so a
// cancellation observed there wins.
type timerNode struct {
	eng      *Engine
	fn       func()
	delay    time.Duration
	deadline time.Time // when the armed timer is due (shutdown drain order)
	seq      uint64
	t        *time.Timer
	stopped  bool
}

// arm starts the wall-clock timer. Engine lock held.
func (n *timerNode) arm() {
	e := n.eng
	n.deadline = time.Now().Add(n.delay)
	n.t = time.AfterFunc(n.delay, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if n.stopped || e.closed {
			return
		}
		n.stopped = true
		delete(e.timers, n)
		e.events++
		n.fn()
	})
}

// Cancel implements core.Timer. Engine lock held.
func (n *timerNode) Cancel() {
	if n.stopped {
		return
	}
	n.stopped = true
	delete(n.eng.timers, n)
	if n.t != nil {
		n.t.Stop()
	}
}
