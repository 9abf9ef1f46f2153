// Package live is the wall-clock backend: it runs the same scenarios as
// the deterministic simulator (internal/sim) on real goroutines, the
// wall clock, and real mutex contention, under compressed time.
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
//
// Timers: the lock, the clock and every timer belong to a Monitor
// (monitor.go), the one wall-clock monitor in the repo; the gridd
// daemon hosts on one too. Schedule, NewAlarm, WithTimeout and every
// sleep are nodes of its heap, fired by one dispatcher in (deadline,
// arm order), as the simulator fires its events, and never early.
package live

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
)

// Engine is the wall-clock implementation of core.Backend. Create one
// with New, add processes with Spawn, then call Run, which returns when
// every process has. Before Run, Engine methods may only be called from
// the constructing goroutine; afterwards they follow the monitor
// discipline (called with the engine lock held, i.e. from process code
// or timer callbacks). The lock, the clock and every timer are its
// Monitor's: Schedule, NewAlarm, WithTimeout and the sleeps of its
// processes are heap nodes there.
type Engine struct {
	Monitor
	rng   *rand.Rand
	liveN int
	// blocking counts callers inside Blocking, with the lock let go;
	// quiet wakes Run when it and liveN are both 0.
	blocking int
	quiet    sync.Cond

	pendingProcs []*pendingProc

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
		Monitor: Monitor{timescale: timescale},
		rng:     rand.New(rand.NewSource(seed)),
	}
	e.quiet.L = &e.Mutex
	e.root, e.rootCancel = context.WithCancel(context.Background())
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Time { return core.Epoch.Add(e.Elapsed()) }

// Events reports how many scheduling steps (process launches and timer
// firings, sleeps' wake-ups among them) the engine has executed.
func (e *Engine) Events() int64 { return e.events }

// RunQueueLen reports the number of live processes. The live engine
// has no run queue — goroutines are runnable whenever the scheduler
// says so — so the closest observable analogue is the live-process
// count (observability; engine lock held).
func (e *Engine) RunQueueLen() int { return e.liveN }

// TimerHeapLen reports the number of pending timers, sleeping processes
// among them (observability; engine lock held).
func (e *Engine) TimerHeapLen() int {
	e.sweep()
	return len(e.alarms)
}

// Rand returns a uniform value in [0,1) from the engine's seeded
// source. Must be called under the engine lock (or before Run).
func (e *Engine) Rand() float64 { return e.rng.Float64() }

// Context returns the root context for the run.
func (e *Engine) Context() context.Context { return e.root }

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
		e.Lock()
		fn(p)
		e.liveN--
		e.wake()
		e.Unlock()
	}()
}

// wake tells Run that the run may be over: no process is live and no
// timer callback is inside Blocking. Engine lock held.
func (e *Engine) wake() {
	if e.liveN == 0 && e.blocking == 0 {
		e.quiet.Broadcast()
	}
}

// Run starts the clock, launches every pending process, waits for all
// processes (including ones spawned later) to return and for every
// timer callback inside Blocking to come back, then shuts the monitor
// down: each pending timer fires exactly once, in (deadline, arm order),
// before Run returns. The simulator runs its event queue to quiescence,
// so a lease watchdog pending when the last process exits still fires
// and reclaims the zombie's units; without the drain the live backend
// would silently drop those timers and leak whatever bookkeeping they
// were about to heal. Callbacks run under the engine lock; anything
// they re-schedule lands after the shutdown and is inert. Run always
// returns nil; a scenario that never unwinds blocks here, so bound
// scenarios with context deadlines as the simulator's callers already
// do.
func (e *Engine) Run() error {
	e.Lock()
	if e.started {
		e.Unlock()
		panic("live: Run called twice")
	}
	e.startClock()
	pending := e.pendingProcs
	e.pendingProcs = nil
	for _, pp := range pending {
		e.launch(pp.p, pp.fn)
	}
	for e.liveN > 0 || e.blocking > 0 {
		e.quiet.Wait()
	}
	e.shutdown()
	e.Unlock()
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
// touch engine-locked state. A timer callback inside holds the
// dispatcher, so timers that come due meanwhile wait for it to come
// back. Before Run starts, and in its shutdown drain (which holds the
// lock throughout), no other process or timer can want the lock, and fn
// simply runs.
func (e *Engine) Blocking(fn func()) {
	if !e.started || e.closed {
		fn()
		return
	}
	e.blocking++
	e.Unlock()
	fn()
	e.Lock()
	e.blocking--
	e.wake()
}

// Live reports the number of processes that have started and not yet
// returned. Must be called under the engine lock.
func (e *Engine) Live() int { return e.liveN }
