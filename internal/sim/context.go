package sim

import (
	"context"
	"time"
)

// Ctx is a context.Context whose deadline is measured in virtual time.
// Cancellation cascades to child contexts and synchronously wakes any
// process parked on the context, all under the engine token, which keeps
// the whole simulation deterministic.
//
// A Ctx interoperates with foreign (non-sim) parents in a limited way:
// the parent's Err is checked when the child is created, but later
// foreign cancellations are not observed, because watching them would
// require a real goroutine and real time.
//
// The type is tuned for the timeout-per-attempt pattern, where a
// context lives for one guarded call and is discarded. Records are the
// engine's: a context derived by a process goes back to its engine's
// free list when that same process calls its CancelFunc, and the next
// derive reuses it, so in steady state a WithTimeout/Sleep/cancel cycle
// allocates nothing. The CancelFunc is bound once per record. A cancel
// from anywhere else (another process, a timer callback, or before
// Run) only cancels; the record is then left to the collector, as is
// one derived outside any process. After the deriving process's cancel
// the context and its CancelFunc are dead to everyone: whoever still
// holds them reads, or cancels, the record's next tenant (DESIGN.md,
// "Handle lifetimes"). The done channel is materialized only if
// someone asks for it, and children and hooks live in slices backed by
// small inline arrays.
type Ctx struct {
	eng *Engine
	// parent is the sim parent this context is registered with: nil
	// for the root, under a foreign parent, and once canceled. outer is
	// the nearest foreign ancestor, which answers Value.
	parent   *Ctx
	outer    context.Context
	owner    *Proc         // the process that derived it; nil outside any process
	stop     func()        // the CancelFunc: c.end, bound once per record
	done     chan struct{} // lazily created by Done
	err      error
	deadline time.Duration // virtual; valid if hasDL
	hasDL    bool
	free     bool // on the engine's free list
	timer    Timer

	children []*Ctx // registration order; backed by childArr while small
	hooks    []ctxHook
	hookSeq  int // never reset: a stale removeHook id matches no later hook
	childArr [2]*Ctx
	hookArr  [2]ctxHook
}

// ctxHook is a cancellation hook with its registration id, used to
// deregister without a per-registration closure.
type ctxHook struct {
	id int
	fn func(error)
}

var _ context.Context = (*Ctx)(nil)

// closedchan is the shared pre-closed channel Done returns for contexts
// already canceled before anyone asked.
var closedchan = make(chan struct{})

func init() { close(closedchan) }

// newCtx takes a record from the engine's free list, or mints one,
// and opens a tenure under parent for the running process.
func (e *Engine) newCtx(parent context.Context) *Ctx {
	var c *Ctx
	if k := len(e.ctxFree); k > 0 {
		c = e.ctxFree[k-1]
		e.ctxFree[k-1] = nil
		e.ctxFree = e.ctxFree[:k-1]
		c.free = false
		c.err = nil
		c.done = nil
		c.hasDL = false
		c.deadline = 0
	} else {
		c = &Ctx{eng: e}
		c.stop = c.end
	}
	c.owner = e.current
	switch pc := parent.(type) {
	case *Ctx:
		c.parent, c.outer = pc, pc.outer
	default:
		c.parent, c.outer = nil, parent
	}
	return c
}

// end is the CancelFunc: it cancels the context and, called by the
// process that derived it, ends the record's tenure. A second call
// before the record is reused does nothing.
func (c *Ctx) end() {
	if c.free {
		return
	}
	c.cancel(context.Canceled)
	if e := c.eng; c.owner != nil && c.owner == e.current {
		c.free = true
		e.ctxFree = append(e.ctxFree, c)
	}
}

// Deadline reports the virtual deadline, converted to absolute time.
func (c *Ctx) Deadline() (time.Time, bool) {
	if !c.hasDL {
		return time.Time{}, false
	}
	return Epoch.Add(c.deadline), true
}

// Done returns a channel closed when the context is canceled. The
// channel is created on first call (engine token), so contexts watched
// only via Err and hooks never allocate one.
func (c *Ctx) Done() <-chan struct{} {
	if c.done == nil {
		if c.err != nil {
			return closedchan
		}
		c.done = make(chan struct{})
	}
	return c.done
}

// Err reports nil until the context is canceled, then the cause.
func (c *Ctx) Err() error { return c.err }

// Value defers to the nearest foreign ancestor: a sim context holds
// no values of its own.
func (c *Ctx) Value(key any) any {
	if c.outer != nil {
		return c.outer.Value(key)
	}
	return nil
}

// cancel marks the context done with cause err, fires hooks, and cascades
// to children, both in registration order (wakeup order is part of the
// deterministic event sequence). Must run under the engine token.
func (c *Ctx) cancel(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	if c.done != nil {
		close(c.done)
	}
	c.timer.Cancel()
	c.timer = Timer{}
	hooks := c.hooks
	c.hooks = nil
	for i := range hooks {
		fn := hooks[i].fn
		hooks[i] = ctxHook{}
		fn(err)
	}
	children := c.children
	c.children = nil
	for i, child := range children {
		children[i] = nil
		child.cancel(err)
	}
	if pc := c.parent; pc != nil {
		c.parent = nil // a canceled context keeps no parent to touch
		pc.removeChild(c)
	}
}

// removeChild unregisters a canceled child, preserving order.
func (c *Ctx) removeChild(child *Ctx) {
	for i, cc := range c.children {
		if cc == child {
			copy(c.children[i:], c.children[i+1:])
			c.children[len(c.children)-1] = nil
			c.children = c.children[:len(c.children)-1]
			return
		}
	}
}

// onCancel registers fn to run when the context is canceled, returning
// an id for removeHook. The caller must have checked Err beforehand.
func (c *Ctx) onCancel(fn func(error)) int {
	if c.hooks == nil {
		c.hooks = c.hookArr[:0]
	}
	id := c.hookSeq
	c.hookSeq++
	c.hooks = append(c.hooks, ctxHook{id: id, fn: fn})
	return id
}

// removeHook deregisters a hook by id; unknown ids (hooks consumed by a
// cancellation) are ignored.
func (c *Ctx) removeHook(id int) {
	for i := range c.hooks {
		if c.hooks[i].id == id {
			copy(c.hooks[i:], c.hooks[i+1:])
			c.hooks[len(c.hooks)-1] = ctxHook{}
			c.hooks = c.hooks[:len(c.hooks)-1]
			return
		}
	}
}

// onCancelID registers fn on ctx if it is a simulation context,
// returning the hook id and the context to deregister from. For foreign
// contexts it returns a nil context — there is nothing to deregister,
// since foreign cancellation cannot be observed without real
// concurrency.
func onCancelID(ctx context.Context, fn func(error)) (int, *Ctx) {
	if sc, ok := ctx.(*Ctx); ok {
		return sc.onCancel(fn), sc
	}
	return 0, nil
}

// WithCancel derives a child context canceled either explicitly or when
// its parent is canceled.
func (e *Engine) WithCancel(parent context.Context) (context.Context, context.CancelFunc) {
	child := e.newCtx(parent)
	if err := parent.Err(); err != nil {
		child.cancel(err)
		return child, child.stop
	}
	if pc := child.parent; pc != nil {
		if pc.children == nil {
			pc.children = pc.childArr[:0]
		}
		pc.children = append(pc.children, child)
	}
	return child, child.stop
}

// WithTimeout derives a child context canceled after d of virtual time.
// The deadline is armed through the zero-closure ScheduleArg path with
// a shared package-level callback.
func (e *Engine) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := e.WithCancel(parent)
	child := ctx.(*Ctx)
	if child.err != nil {
		return child, cancel
	}
	child.hasDL = true
	child.deadline = e.now + d
	if pd, ok := parent.Deadline(); ok {
		if pv := pd.Sub(Epoch); pv < child.deadline {
			child.deadline = pv
		}
	}
	child.timer = e.ScheduleArg(child.deadline-e.now, ctxDeadlineFire, child)
	return child, cancel
}

// ctxDeadlineFire is the shared deadline callback for every WithTimeout
// context; the context itself rides in the timer's arg slot.
func ctxDeadlineFire(arg any) {
	arg.(*Ctx).cancel(context.DeadlineExceeded)
}
