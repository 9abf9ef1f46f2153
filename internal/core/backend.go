package core

import (
	"context"
	"time"

	"repro/internal/trace"
)

// Epoch is the virtual time origin shared by every backend: all virtual
// timestamps are offsets from this instant. The particular date is
// arbitrary (it is the month HPDC 12 took place) but fixed so traces are
// stable across runs and directly comparable between backends.
var Epoch = time.Date(2003, time.June, 22, 0, 0, 0, 0, time.UTC)

// Backend is the engine-level runtime behind a scenario: virtual time,
// process creation, timers, and contexts. It creates no resources:
// every contended carrier is a lease.Manager hosted on the backend, the
// one FIFO semaphore on every backend. Two implementations exist — the
// deterministic discrete-event engine (internal/sim, via Engine.RT) and
// the wall-clock backend (internal/live) that runs the same scenarios
// on real goroutines under compressed time. Substrate code (condor,
// fsbuffer, replica, lease, chaos) is written against this interface so
// the paper's experiments run unmodified on either.
//
// Unless a method documents otherwise, Backend methods must be called
// either before Run starts, from inside a spawned process, or from a
// timer callback — the same token discipline the simulator enforces;
// the live backend substitutes a global mutex for the token.
type Backend interface {
	// Now reports the current virtual time (Epoch + Elapsed).
	Now() time.Time
	// Elapsed reports virtual time since the start of the run.
	Elapsed() time.Duration
	// Events reports how many scheduling steps the backend has executed.
	Events() int64
	// Rand returns a uniform value in [0,1) from the backend's seeded
	// source.
	Rand() float64
	// Context returns the root context for the run.
	Context() context.Context
	// Spawn creates a new process executing fn and schedules it to run.
	Spawn(name string, fn func(p Proc))
	// Schedule arranges for fn to run at virtual time now+d, returning a
	// handle that can cancel the callback before it fires.
	Schedule(d time.Duration, fn func()) Timer
	// NewAlarm returns a timer for fn that the caller keeps and re-arms
	// as often as it likes: a lease watchdog, pushed back on every
	// renewal and carried across the tenures of a recycled lease record.
	NewAlarm(fn func()) Alarm
	// WithCancel derives an explicitly cancelable child context.
	WithCancel(parent context.Context) (context.Context, context.CancelFunc)
	// WithTimeout derives a child context canceled after d of virtual
	// time.
	WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc)
	// Run executes the scenario until completion: quiescence for the
	// simulator, all processes returned for the live backend.
	Run() error
}

// Proc is one process under a Backend: the per-client Runtime plus the
// identity, parking, and tracing hooks the substrates use. *sim.Proc
// and *live.Proc both satisfy it.
type Proc interface {
	Runtime
	// Name returns the name given at Spawn time.
	Name() string
	// Elapsed reports virtual time since the start of the run.
	Elapsed() time.Duration
	// Yield gives other runnable processes a chance to run.
	Yield()
	// SleepFor pauses for d of virtual time without a context.
	SleepFor(d time.Duration)
	// Hang parks the process until ctx is canceled, then returns the
	// cancellation cause.
	Hang(ctx context.Context) error
	// Schedule arranges fn to run at virtual time now+d on the process's
	// backend.
	Schedule(d time.Duration, fn func()) Timer
	// SetTracer attaches a per-client trace handle (nil disables).
	SetTracer(c *trace.Client)
	// Tracer returns the process's trace handle; nil means tracing is
	// off (and is itself safe to emit on).
	Tracer() *trace.Client
}

// Timer is a cancelable handle to a callback scheduled with
// Backend.Schedule. Cancel must be called under the backend's token
// (or lock); canceling an already-fired timer is a no-op.
type Timer interface {
	Cancel()
}

// Alarm is a one-shot timer with a fixed callback that its owner keeps
// across firings. Set cancels any pending firing and arms the callback
// d from now; Stop cancels it. Both must be called under the backend's
// token (or lock). It spares a caller that re-arms one callback again
// and again a Timer per arming: on the simulator, boxing a fresh handle
// into a Timer is an allocation, and an alarm keeps the engine's handle
// in place.
type Alarm interface {
	Set(d time.Duration)
	Stop()
}

// AlarmOf builds an Alarm over a backend's Schedule, for backends whose
// timers are heap objects anyway (the live engine).
func AlarmOf(schedule func(d time.Duration, fn func()) Timer, fn func()) Alarm {
	return &schedAlarm{schedule: schedule, fn: fn}
}

type schedAlarm struct {
	schedule func(d time.Duration, fn func()) Timer
	fn       func()
	t        Timer
}

func (a *schedAlarm) Set(d time.Duration) {
	a.Stop()
	a.t = a.schedule(d, a.fn)
}

func (a *schedAlarm) Stop() {
	if a.t != nil {
		a.t.Cancel()
		a.t = nil
	}
}
