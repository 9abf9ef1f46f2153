package sim

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Proc is a simulated process: a body that runs on a shell coroutine,
// which Engine.Run resumes, and only while it holds the engine token.
// All of its methods must be called from inside the process itself
// unless documented otherwise; the blocking ones panic when called from
// anywhere else.
//
// Proc satisfies the core.Runtime interface, so the same fault-tolerance
// code drives both simulated and real executions.
type Proc struct {
	eng     *Engine
	id      int32 // arena index; see Engine.procByID
	name    string
	sh      *shell // the coroutine the process runs on; nil once recycled
	parked  bool
	wakeErr error
	done    bool
	tracer  *trace.Client

	// Cached wakeup state for Yield/Sleep/Hang. A process has at most
	// one pending park, so one fired-flag and one timer slot suffice,
	// and the two closures are created once per arena record and reused
	// across parks (and across recycled tenures).
	sleepFired bool
	sleepTimer Timer
	sleepWake  func()      // timer path: wake(nil) unless already fired
	sleepHook  func(error) // cancel path: cancel timer, wake(err)
}

// ErrProcKilled is returned from blocking calls when a process is woken
// because its context was canceled without a more specific cause.
var ErrProcKilled = errors.New("sim: process killed")

// A Proc is the virtual-time implementation of the fault-tolerance
// runtime; the same retry code drives simulations and real executions.
var (
	_ core.Runtime = (*Proc)(nil)
	_ core.Proc    = (*Proc)(nil)
)

// Name returns the name given at Spawn time, for traces and tests.
func (p *Proc) Name() string { return p.name }

// SetTracer attaches a per-client trace handle to the process, giving
// substrate code (schedd, buffer, replica server) a way to record
// resource events against the client that triggered them. A nil handle
// (the default) disables tracing.
func (p *Proc) SetTracer(c *trace.Client) { p.tracer = c }

// Tracer returns the process's trace handle; nil means tracing is off.
// The nil handle is itself safe to emit on.
func (p *Proc) Tracer() *trace.Client { return p.tracer }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Schedule arranges fn to run at virtual time now+d on the process's
// engine, satisfying the backend-neutral core.Proc interface.
func (p *Proc) Schedule(d time.Duration, fn func()) core.Timer {
	return p.eng.Schedule(d, fn)
}

// Now reports the current virtual time.
func (p *Proc) Now() time.Time { return p.eng.Now() }

// Elapsed reports virtual time since the start of the simulation.
func (p *Proc) Elapsed() time.Duration { return p.eng.now }

// Rand returns a deterministic uniform value in [0,1).
func (p *Proc) Rand() float64 { return p.eng.Rand().Float64() }

// exit is called by the shell when the process function returns.
func (p *Proc) exit() {
	p.done = true
	p.eng.live--
}

// park yields the token to the engine and blocks until some other party
// wakes the process. It returns the error supplied by the waker. Only
// the running process may park itself: a yield from any other stack
// would switch out the wrong coroutine.
func (p *Proc) park() error {
	if p.eng.current != p {
		panic("sim: park of " + p.name + " from outside its own process")
	}
	p.parked = true
	p.sh.yield(struct{}{})
	err := p.wakeErr
	p.wakeErr = nil
	return err
}

// wake makes a parked process runnable. It must be called under the
// engine token by a timer callback or another process.
func (p *Proc) wake(err error) {
	if !p.parked {
		panic("sim: wake of non-parked process " + p.name)
	}
	p.parked = false
	p.wakeErr = err
	p.eng.pushRun(p)
}

// initSleepFns creates the process's reusable wakeup closures. Both
// capture only p, whose arena record is stable, so they are created
// once and survive recycling. The fired flag makes timer-vs-cancel a
// race with exactly one winner; the loser sees the flag and stands
// down. sleepTimer is the zero Timer for parks without one (Yield,
// Hang), where Cancel is a no-op.
func (p *Proc) initSleepFns() {
	p.sleepWake = func() {
		if !p.sleepFired {
			p.sleepFired = true
			p.wake(nil)
		}
	}
	p.sleepHook = func(err error) {
		if !p.sleepFired {
			p.sleepFired = true
			p.sleepTimer.Cancel()
			p.wake(err)
		}
	}
}

// armSleep resets the shared wakeup state for a new park.
func (p *Proc) armSleep() {
	if p.sleepWake == nil {
		p.initSleepFns()
	}
	p.sleepFired = false
	p.sleepTimer = Timer{}
}

// Yield gives other runnable processes a chance to run at the current
// virtual instant.
func (p *Proc) Yield() {
	p.armSleep()
	p.eng.Schedule(0, p.sleepWake)
	_ = p.park()
}

// SleepFor pauses the process for d of virtual time. It cannot be
// interrupted; prefer Sleep with a context for cancellable waits.
func (p *Proc) SleepFor(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.armSleep()
	p.eng.Schedule(d, p.sleepWake)
	_ = p.park()
}

// Sleep pauses the process for d of virtual time or until ctx is
// canceled, whichever comes first, returning the context's error in the
// latter case. It implements the core.Runtime sleep contract. The
// cached closures and the context's inline hook storage make the
// steady-state cost zero allocations.
func (p *Proc) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		p.Yield()
		return ctx.Err()
	}
	p.armSleep()
	p.sleepTimer = p.eng.Schedule(d, p.sleepWake)
	id, sc := onCancelID(ctx, p.sleepHook)
	err := p.park()
	if sc != nil {
		sc.removeHook(id)
	}
	return err
}

// Hang parks the process until ctx is canceled, then returns the
// cancellation cause. It models interacting with a "black hole" service
// that never responds.
func (p *Proc) Hang(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.armSleep()
	id, sc := onCancelID(ctx, p.sleepHook)
	err := p.park()
	if sc != nil {
		sc.removeHook(id)
	}
	return err
}

// WithTimeout derives a context that is canceled after d of virtual time.
// If parent is a simulation context the cancellation also propagates from
// it; foreign parents are honored only via their current Err state.
func (p *Proc) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return p.eng.WithTimeout(parent, d)
}

// WithCancel derives a cancelable child context in virtual time.
func (p *Proc) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	return p.eng.WithCancel(parent)
}

// Parallel runs the fns in worker processes, handing each branch its
// worker as its Runtime, and parks the caller until every branch has
// returned. The i'th error in the result corresponds to fns[i]. At
// most limit branches run at once (limit <= 0 means one process per
// branch); queued branches are admitted in index order as workers free
// up. Cancellation of branches is the caller's business: wrap fns with
// a shared cancelable context to get first-failure-aborts semantics.
func (p *Proc) Parallel(ctx context.Context, limit int, fns []func(ctx context.Context, rt core.Runtime) error) []error {
	errs := make([]error, len(fns))
	if len(fns) == 0 {
		return errs
	}
	workers := len(fns)
	if limit > 0 && limit < workers {
		workers = limit
	}
	next := 0
	remaining := len(fns)
	parent := p
	parentParked := false
	for w := 0; w < workers; w++ {
		p.eng.Spawn(p.name+"/par", func(child *Proc) {
			child.tracer = parent.tracer // branches trace as their spawner
			for next < len(fns) {
				i := next
				next++ // token-serialized: no race
				errs[i] = fns[i](ctx, child)
				remaining--
			}
			if remaining == 0 && parentParked {
				parentParked = false // only the first finisher wakes
				parent.wake(nil)
			}
		})
	}
	// Workers cannot have run yet (we hold the token), so parking here
	// is race-free even if they all finish before the parent would.
	for remaining > 0 {
		parentParked = true
		_ = p.park()
		parentParked = false
	}
	return errs
}
