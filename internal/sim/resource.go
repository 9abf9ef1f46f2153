package sim

import (
	"context"

	"repro/internal/core"
)

// Resource is a FIFO counting semaphore in virtual time. It models
// serially-shared services such as a single-threaded data server (capacity
// 1) or a bounded table of file descriptors (capacity N).
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []*resWaiter

	// Stats, readable at any point under the engine token.
	Acquires int64 // successful acquisitions
	Rejects  int64 // TryAcquire failures
	Timeouts int64 // waiters abandoned by cancellation
}

type resWaiter struct {
	p       *Proc
	granted bool
	gone    bool
}

var _ core.Resource = (*Resource)(nil)

// NewResource returns a resource with the given capacity.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 0 {
		panic("sim: negative resource capacity")
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Available returns the number of free units. This is the "carrier sense"
// observable for resources of this kind.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int {
	n := 0
	for _, w := range r.waiters {
		if !w.gone && !w.granted {
			n++
		}
	}
	return n
}

// SetCapacity adjusts capacity at runtime (e.g. an administrator retuning
// a kernel table). Shrinking below inUse is allowed; units drain as they
// are released. Growing grants queued waiters immediately.
func (r *Resource) SetCapacity(n int) {
	r.capacity = n
	r.grantWaiters()
}

// TryAcquire takes one unit without waiting, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.inUse++
		r.Acquires++
		return true
	}
	r.Rejects++
	return false
}

// Acquire takes one unit, parking the process in FIFO order until one is
// free or ctx is canceled (returning the cancellation cause). The
// process must belong to this resource's engine.
func (r *Resource) Acquire(cp core.Proc, ctx context.Context) error {
	p := cp.(*Proc)
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.inUse < r.capacity && r.QueueLen() == 0 {
		r.inUse++
		r.Acquires++
		return nil
	}
	w := &resWaiter{p: p}
	r.waiters = append(r.waiters, w)
	id, sc := onCancelID(ctx, func(err error) {
		if !w.granted && !w.gone {
			w.gone = true
			r.Timeouts++
			p.wake(err)
		}
	})
	err := p.park()
	if sc != nil {
		sc.removeHook(id)
	}
	if err != nil {
		return err
	}
	return nil
}

// Release returns one unit and grants it to the oldest live waiter, if
// any. Releasing more than was acquired panics: that is a simulation bug.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.inUse--
	r.grantWaiters()
}

// grantWaiters hands free units to queued waiters in FIFO order.
func (r *Resource) grantWaiters() {
	// Abandoned waiters at the head go even when no unit is free, so a
	// saturated resource does not keep them queued.
	for len(r.waiters) > 0 && r.waiters[0].gone {
		r.waiters = r.waiters[1:]
	}
	for len(r.waiters) > 0 && r.inUse < r.capacity {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		if w.gone {
			continue
		}
		w.granted = true
		r.inUse++
		r.Acquires++
		w.p.wake(nil)
	}
}
