package live

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Proc is a live process: a goroutine that holds the engine lock while
// it runs substrate code and releases it across every blocking
// operation. It satisfies core.Proc, so the identical discipline code
// drives simulated and live executions.
type Proc struct {
	eng    *Engine
	name   string
	tracer *trace.Client
}

var _ core.Proc = (*Proc)(nil)

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// SetTracer attaches a per-client trace handle (nil disables).
func (p *Proc) SetTracer(c *trace.Client) { p.tracer = c }

// Tracer returns the process's trace handle; nil is safe to emit on.
func (p *Proc) Tracer() *trace.Client { return p.tracer }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() time.Time { return p.eng.Now() }

// Elapsed reports virtual time since Run started.
func (p *Proc) Elapsed() time.Duration { return p.eng.Elapsed() }

// Rand returns a uniform value in [0,1); the engine lock serializes
// draws, so the sequence is seed-deterministic even though which
// process gets which draw is not.
func (p *Proc) Rand() float64 { return p.eng.rng.Float64() }

// Schedule arranges fn to run at virtual time now+d on the process's
// engine.
func (p *Proc) Schedule(d time.Duration, fn func()) core.Timer {
	return p.eng.Schedule(d, fn)
}

// Yield releases the engine lock and lets other goroutines run.
func (p *Proc) Yield() {
	p.eng.Unlock()
	runtime.Gosched()
	p.eng.Lock()
}

// SleepFor pauses for d of virtual time. It cannot be interrupted;
// prefer Sleep with a context for cancellable waits.
func (p *Proc) SleepFor(d time.Duration) { _ = p.Sleep(context.Background(), d) }

// Sleep pauses for d of virtual time or until ctx is canceled,
// whichever comes first, returning the context's error in the latter
// case. The wake-up is a timer on the engine's monitor, so it fires in
// (deadline, arm order) with every other timer, never early.
func (p *Proc) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	woke := make(chan struct{})
	t := p.eng.Schedule(d, func() { close(woke) })
	p.eng.Unlock()
	var err error
	select {
	case <-woke:
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.eng.Lock()
	t.Cancel()
	return err
}

// Hang parks the process until ctx is canceled, then returns the
// cancellation cause. It models interacting with a "black hole" service
// that never responds.
func (p *Proc) Hang(ctx context.Context) error { return p.eng.Hang(ctx) }

// WithTimeout derives a context canceled after d of virtual time.
func (p *Proc) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return p.eng.WithTimeout(parent, d)
}

// WithCancel derives a cancelable child context.
func (p *Proc) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	return p.eng.WithCancel(parent)
}

// Parallel runs the fns in worker processes, handing each branch its
// worker as its Runtime, and blocks (with the engine lock released)
// until every branch has returned. At most limit branches run at once
// (limit <= 0 means one goroutine per branch).
func (p *Proc) Parallel(ctx context.Context, limit int, fns []func(ctx context.Context, rt core.Runtime) error) []error {
	errs := make([]error, len(fns))
	if len(fns) == 0 {
		return errs
	}
	workers := len(fns)
	if limit > 0 && limit < workers {
		workers = limit
	}
	e := p.eng
	next := 0 // engine lock serializes claims
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		child := &Proc{eng: e, name: p.name + "/par", tracer: p.tracer}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Lock()
			for next < len(fns) {
				i := next
				next++
				errs[i] = fns[i](ctx, child)
			}
			e.Unlock()
		}()
	}
	e.Unlock()
	wg.Wait()
	e.Lock()
	return errs
}
