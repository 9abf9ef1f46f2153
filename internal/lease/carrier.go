package lease

import (
	"context"
	"time"
)

// Carrier is a pool of units whose refusals are immediate, the way
// open(2) refuses with EMFILE: condor's FD table is one. *Manager is
// the carrier in process; griddclient.Carrier keeps the units in a
// gridd daemon. Its methods are exactly what the submit and lease
// scenarios call: it has no verb that parks and none that takes units
// without a lease, so every take is a TryAcquire that is granted or
// refused at once. It is read through Sense alone, one snapshot of its
// counts as one line of file-nr is the kernel's, which a remote carrier
// answers with one round trip.
type Carrier interface {
	Sense() Sense
	// SetCapacity resizes the pool (a fault plan's squeeze).
	SetCapacity(n int64)
	TryAcquire(p Parker, ctx context.Context, holder string, units int64) (Lease, bool)
	NoteWant(holder string)
	LongestWait() time.Duration
	MaxStarvation() time.Duration
	// Revocations counts the tenures the carrier's watchdog revoked.
	Revocations() int64
}

var _ Carrier = (*Manager)(nil)

// Sense is one reading of a carrier: its capacity and the units held
// at one instant.
type Sense struct {
	Capacity, InUse int64
}

// Free is Capacity less InUse, what carrier sense reads; it is negative
// after a squeeze below what is held.
func (s Sense) Free() int64 { return s.Capacity - s.InUse }

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
