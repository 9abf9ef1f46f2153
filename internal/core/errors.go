package core

import (
	"errors"
	"fmt"
	"time"
)

// The paper's central observation is that failure detail is usually
// unavailable ("untyped exceptions"), so this package keeps error
// classification deliberately coarse. Three sentinel kinds matter to the
// Ethernet discipline itself; everything else is an opaque failure.

// ErrCollision marks a failure caused by contention detected *after*
// consuming a resource — the Ethernet "collision detect" outcome. Ops
// wrap or return it so observers can count collisions.
var ErrCollision = errors.New("collision: resource in contention")

// ErrDeferred marks an attempt abandoned *before* consuming the resource
// because carrier sense judged it busy. Deferrals are cheap; collisions
// are not. The distinction drives Figures 5 and 7.
var ErrDeferred = errors.New("deferred: carrier busy")

// ErrFailure is the generic untyped failure, equivalent to ftsh's
// `failure` command or a non-zero exit code.
var ErrFailure = errors.New("failure")

// refusal is what Collision and Deferred return: a resource name, the
// kind sentinel, and an optional cause. Every refused attempt builds
// one and almost nobody reads its text, so the text is assembled in
// Error, not at construction.
type refusal struct {
	name  string
	kind  error // ErrCollision or ErrDeferred
	cause error // may be nil
}

// Error implements the error interface: "name: kind[: cause]".
func (e *refusal) Error() string {
	if e.cause == nil {
		return e.name + ": " + e.kind.Error()
	}
	return e.name + ": " + e.kind.Error() + ": " + e.cause.Error()
}

// Is makes errors.Is match the kind sentinel.
func (e *refusal) Is(target error) bool { return target == e.kind }

// Unwrap keeps the cause on the errors.Is/As chain.
func (e *refusal) Unwrap() error { return e.cause }

// Collision wraps err (which may be nil) as a collision on resource name.
// The inner error stays on the errors.Is/As chain: a caller that needs
// to know *why* the collision happened (a typed rejection, a revoked
// lease, an injected fault) can still see through the coarse wrapper,
// while code that only counts collisions keeps matching ErrCollision.
func Collision(name string, err error) error {
	return &refusal{name: name, kind: ErrCollision, cause: err}
}

// Deferred wraps a carrier-sense deferral on resource name.
func Deferred(name string) error {
	return &refusal{name: name, kind: ErrDeferred}
}

// IsCollision reports whether err is or wraps ErrCollision.
func IsCollision(err error) bool { return errors.Is(err, ErrCollision) }

// IsDeferred reports whether err is or wraps ErrDeferred.
func IsDeferred(err error) bool { return errors.Is(err, ErrDeferred) }

// RejectedError marks an attempt refused outright by an admission
// controller before any resource was consumed: the reservation book
// saying "no capacity over the requested window". It is distinct from
// the three sentinel kinds above — a collision is contention discovered
// *after* consuming the resource, a deferral is the client's own
// carrier sense standing down, but a rejection is the resource's
// verdict, and it is the only kind that carries a measure of how full
// the resource was.
type RejectedError struct {
	Resource  string // the admission-controlled resource ("fds", "yyy", ...)
	Shortfall int64  // units the request exceeded remaining capacity by (always > 0)
}

// Error implements the error interface.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("%s: rejected by admission: %d unit(s) over capacity", e.Resource, e.Shortfall)
}

// Rejected builds a typed admission rejection on resource name.
func Rejected(name string, shortfall int64) error {
	return &RejectedError{Resource: name, Shortfall: shortfall}
}

// IsRejected reports whether err is or wraps a *RejectedError.
func IsRejected(err error) bool { return Rejection(err) != nil }

// Rejection extracts the typed rejection from err's chain, or nil.
func Rejection(err error) *RejectedError {
	var re *RejectedError
	if errors.As(err, &re) {
		return re
	}
	return nil
}

// ErrLost marks a message swallowed by the channel between a client and
// a resource: a dropped request, a dropped reply, or a partitioned
// link. The client cannot distinguish the three — all it observes is
// that the operation never completed — which is exactly the paper's
// untyped-failure regime. Substrates wrap it as a collision.
var ErrLost = errors.New("lost: message dropped by channel")

// IsLost reports whether err is or wraps ErrLost.
func IsLost(err error) bool { return errors.Is(err, ErrLost) }

// ErrStale marks an operation carrying a fencing epoch that the
// resource has already moved past: a revoked-then-delayed holder
// releasing units it no longer owns, or a duplicated grant arriving
// after its successor. Fenced resources reject such operations instead
// of applying them, which is what makes double-allocation impossible.
var ErrStale = errors.New("stale: fencing epoch superseded")

// StaleError carries the detail of a fencing rejection: which resource
// fenced the operation, the epoch the operation carried, and the
// resource's current fence (the highest epoch it has retired).
type StaleError struct {
	Resource string // the fenced resource ("fds", "reservation", ...)
	Epoch    uint64 // epoch the rejected operation carried
	Fence    uint64 // resource's fence: highest retired epoch (>= Epoch)
}

// Error implements the error interface.
func (e *StaleError) Error() string {
	return fmt.Sprintf("%s: %v: epoch %d <= fence %d", e.Resource, ErrStale, e.Epoch, e.Fence)
}

// Is makes errors.Is(err, ErrStale) match a StaleError.
func (e *StaleError) Is(target error) bool { return target == ErrStale }

// Stale builds a typed fencing rejection on resource name.
func Stale(name string, epoch, fence uint64) error {
	return &StaleError{Resource: name, Epoch: epoch, Fence: fence}
}

// IsStale reports whether err is or wraps a fencing rejection.
func IsStale(err error) bool { return errors.Is(err, ErrStale) }

// Staleness extracts the typed fencing rejection from err's chain, or nil.
func Staleness(err error) *StaleError {
	var se *StaleError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

// ExhaustedError reports why a Try gave up: its budget of time and/or
// attempts ran out. Last holds the most recent attempt's error.
type ExhaustedError struct {
	Attempts int           // attempts actually made
	Elapsed  time.Duration // time spent inside Try
	Last     error         // error from the final attempt, possibly nil if canceled pre-attempt
}

// Error implements the error interface.
func (e *ExhaustedError) Error() string {
	if e.Last == nil {
		return fmt.Sprintf("try: exhausted after %d attempts in %v", e.Attempts, e.Elapsed)
	}
	return fmt.Sprintf("try: exhausted after %d attempts in %v: last error: %v", e.Attempts, e.Elapsed, e.Last)
}

// Unwrap exposes the last attempt error to errors.Is/As chains.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// AllFailedError reports a Forany in which no alternative succeeded.
type AllFailedError struct {
	Errs []error // one per alternative, in attempt order
}

// Error implements the error interface.
func (e *AllFailedError) Error() string {
	return fmt.Sprintf("forany: all %d alternatives failed", len(e.Errs))
}

// Unwrap exposes the branch errors to errors.Is/As chains.
func (e *AllFailedError) Unwrap() []error { return e.Errs }

// BranchError reports a Forall in which at least one branch failed.
type BranchError struct {
	Errs []error // parallel to the branch list; nil for successful branches
}

// Error implements the error interface.
func (e *BranchError) Error() string {
	n := 0
	for _, err := range e.Errs {
		if err != nil {
			n++
		}
	}
	return fmt.Sprintf("forall: %d of %d branches failed", n, len(e.Errs))
}

// Unwrap exposes the branch errors to errors.Is/As chains.
func (e *BranchError) Unwrap() []error { return e.Errs }
