package lease

import (
	"context"
	"time"
)

// Carrier is a pool of units whose refusals are immediate, the way
// open(2) refuses with EMFILE: condor's FD table sits on one. *Manager
// is the carrier in process; griddclient.Carrier keeps the units in a
// gridd daemon. Its methods are exactly what the FD table and the
// submit and lease scenarios call.
type Carrier interface {
	Capacity() int64
	InUse() int64
	Free() int64
	QueueLen() int
	// SetCapacity resizes the pool (a fault plan's squeeze).
	SetCapacity(n int64)
	// TryTake and Put take and return raw units, with no lease.
	TryTake(units int64) bool
	// Put returns units a TryTake took; returning units not taken
	// panics.
	Put(units int64)
	TryAcquire(p Parker, ctx context.Context, holder string, units int64) (Lease, bool)
	NoteWant(holder string)
	LongestWait() time.Duration
	MaxStarvation() time.Duration
	// Revocations counts the tenures the carrier's watchdog revoked.
	Revocations() int64
}

var _ Carrier = (*Manager)(nil)

// Tenure is the state behind a Lease handle: a Manager's record, or a
// grant a remote carrier holds. Epoch names the tenure the state holds
// now; a handle carrying another epoch has ended, and the Lease reads
// an ended tenure instead of calling the other methods, which are the
// Lease methods of the same names.
type Tenure interface {
	Epoch() uint64
	Ctx() context.Context
	Revoked() bool
	Renew() bool
	Release()
}

// Held returns a handle on the tenure t holds now.
func Held(t Tenure) Lease { return Lease{r: t, epoch: t.Epoch()} }
