package chaos

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

// This file is the invariant-checker layer: mechanical assertions of
// the paper's safety and liveness properties, run alongside any
// experiment — with or without a fault plan armed. The checks are:
//
//   - carrier floor: Ethernet clients never drive the sensed resource
//     below its carrier threshold for longer than one backoff epoch
//     (dips happen — in-flight work completes after sensing — but the
//     discipline must pull free capacity back above the floor);
//   - liveness: the run reaches its horizon instead of deadlocking
//     early (a run that never quiesces fails in the engine itself, at
//     its event bound);
//   - monotonicity: cumulative observables (jobs, transfers, files
//     consumed) never decrease;
//   - no-starvation, no-double-alloc, conservation and heal-liveness:
//     the lease, fencing and partition properties (see their methods);
//   - determinism: identical seeds yield identical series — asserted
//     by tests via metrics.Series.Equal on double runs.

// Violation is one observed breach of an invariant.
type Violation struct {
	// Check names the violated invariant ("carrier-floor", ...).
	Check string
	// At is the virtual time of detection.
	At time.Duration
	// Detail explains the breach.
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s at %v: %s", v.Check, v.At, v.Detail)
}

// Recorder accumulates violations across one or more experiment cells,
// so a figure-level sweep can collect everything before failing.
type Recorder struct {
	Violations []Violation
}

// Add appends a violation.
func (r *Recorder) Add(v Violation) { r.Violations = append(r.Violations, v) }

// Ok reports whether no invariant was violated.
func (r *Recorder) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil when no invariant was violated, or an error naming up
// to five of them.
func (r *Recorder) Err() error {
	if r.Ok() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", len(r.Violations))
	for i, v := range r.Violations {
		if i == 5 {
			fmt.Fprintf(&b, " ... and %d more", len(r.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}

// Invariants runs a set of checks against one engine, sampling on a
// virtual-time tick. Construct with NewInvariants, register checks,
// call Start before the run and Finish after Run returns.
type Invariants struct {
	eng core.Backend
	rec *Recorder

	ticks   []func(now time.Duration)
	horizon time.Duration // see Horizon; 0 checks nothing
}

// sampleEvery is the checks' sampling tick, in virtual time.
const sampleEvery = time.Second

// NewInvariants returns a checker sampling every second of virtual
// time, recording violations into rec (nil allocates a private
// recorder, readable via Recorder()).
func NewInvariants(e core.Backend, rec *Recorder) *Invariants {
	if rec == nil {
		rec = &Recorder{}
	}
	return &Invariants{eng: e, rec: rec}
}

// Recorder returns the recorder violations are written to.
func (inv *Invariants) Recorder() *Recorder { return inv.rec }

// Err is shorthand for Recorder().Err().
func (inv *Invariants) Err() error { return inv.rec.Err() }

func (inv *Invariants) violate(check string, now time.Duration, format string, args ...any) {
	inv.rec.Add(Violation{Check: check, At: now, Detail: fmt.Sprintf(format, args...)})
}

// CarrierFloor asserts the Ethernet safety property: the sensed free
// capacity must not stay below the carrier floor for longer than
// maxBelow (one backoff epoch). The floor is half the clients' carrier
// threshold, or half the capacity when that is lower: it halves under
// capacity squeezes, since the discipline can only preserve what the
// kernel still provides. Each tick senses once and judges, and reports,
// that one reading. One violation is recorded per continuous
// below-floor excursion that exceeds the budget.
func (inv *Invariants) CarrierFloor(name string, sense func() lease.Sense, threshold int64, maxBelow time.Duration) {
	var below time.Duration // continuous time spent below the floor
	reported := false
	inv.ticks = append(inv.ticks, func(now time.Duration) {
		s := sense()
		free, floor := s.Free(), min(threshold, s.Capacity)/2
		if free >= floor {
			below = 0
			reported = false
			return
		}
		below += sampleEvery
		if below > maxBelow && !reported {
			reported = true
			inv.violate("carrier-floor", now, "%s: free=%d below floor %d for %v (budget %v)",
				name, free, floor, below, maxBelow)
		}
	})
}

// NoStarvation asserts the limited-allocation liveness property: no
// live client waits longer than budget for the named resource while
// its capacity is reclaimable. wait samples the longest want-interval
// currently in progress (lease.Manager.LongestWait). One violation is
// recorded per continuous starving excursion, mirroring CarrierFloor.
func (inv *Invariants) NoStarvation(name string, wait func() time.Duration, budget time.Duration) {
	reported := false
	inv.ticks = append(inv.ticks, func(now time.Duration) {
		w := wait()
		if w <= budget {
			reported = false
			return
		}
		if !reported {
			reported = true
			inv.violate("no-starvation", now, "%s: a client has wanted the resource for %v (budget %v)",
				name, w, budget)
		}
	})
}

// Monotone asserts that a cumulative observable never decreases.
func (inv *Invariants) Monotone(name string, value func() float64) {
	last := value()
	inv.ticks = append(inv.ticks, func(now time.Duration) {
		v := value()
		if v < last {
			inv.violate("monotone", now, "%s decreased: %v -> %v", name, last, v)
		}
		last = v
	})
}

// NoDoubleAlloc asserts the fencing safety property: a lease manager's
// ground-truth outstanding units (granted and not yet ended by their
// holders — lease.Manager.Outstanding) never exceed its capacity. An
// unfenced manager under duplicated or delayed release messages
// double-frees, inflating its apparent free capacity until grants
// overshoot what physically exists; a fenced manager rejects the stale
// copy and this invariant holds under any channel behaviour.
func (inv *Invariants) NoDoubleAlloc(name string, outstanding func() int64, capacity func() int64) {
	reported := false
	inv.ticks = append(inv.ticks, func(now time.Duration) {
		out, cap := outstanding(), capacity()
		if out <= cap {
			reported = false
			return
		}
		if !reported {
			reported = true
			inv.violate("double-alloc", now, "%s: %d units outstanding exceed capacity %d",
				name, out, cap)
		}
	})
}

// Conservation asserts the at-most-once property: every applied effect
// corresponds to exactly one distinct work unit (applied counts effects
// booked by the server, distinct counts idempotency keys completed).
// With keys armed the two track exactly; a duplicated request or a
// retried reply-drop on a keyless server books phantom effects and the
// counts diverge. Checked at every tick — both counters are cumulative,
// so one violation latches until Finish.
func (inv *Invariants) Conservation(name string, applied func() int64, distinct func() int64) {
	reported := false
	inv.ticks = append(inv.ticks, func(now time.Duration) {
		a, d := applied(), distinct()
		if a == d {
			reported = false
			return
		}
		if !reported {
			reported = true
			inv.violate("conservation", now, "%s: %d effects applied for %d distinct work units",
				name, a, d)
		}
	})
}

// HealLiveness asserts recovery after a partition: the cumulative
// observable must strictly increase between healAt (when the last
// severed phase closes) and healAt+bound. A population wedged on lost
// leases or drained retry budgets that never resumes fails here; one
// whose watchdogs reclaimed the lost tenures makes progress again.
func (inv *Invariants) HealLiveness(name string, value func() float64, healAt, bound time.Duration) {
	var base float64
	baselined := false
	checked := false
	inv.ticks = append(inv.ticks, func(now time.Duration) {
		if now < healAt || checked {
			return
		}
		if !baselined {
			baselined = true
			base = value()
			return
		}
		if now < healAt+bound {
			return
		}
		checked = true
		if v := value(); v <= base {
			inv.violate("heal-liveness", now, "%s: no progress since the %v heal (%v then, %v now, bound %v)",
				name, healAt, base, v, bound)
		}
	})
}

// Horizon asserts liveness at Finish time: the run must have advanced
// virtual time to at least window. A simulation that quiesces early has
// deadlocked — every client parked forever with no timer left to free
// it — which no retry discipline is ever allowed to do.
func (inv *Invariants) Horizon(window time.Duration) { inv.horizon = window }

// Start schedules the sampling loop. It must be called before the
// engine runs (or under the engine token); sampling stops when ctx is
// canceled, letting the engine quiesce at the end of the window.
func (inv *Invariants) Start(ctx context.Context) {
	var tick func()
	tick = func() {
		if ctx.Err() != nil {
			return
		}
		now := inv.eng.Elapsed()
		for _, f := range inv.ticks {
			f(now)
		}
		inv.eng.Schedule(sampleEvery, tick)
	}
	inv.eng.Schedule(sampleEvery, tick)
}

// Finish runs Horizon's check. Call it after Engine.Run returns.
func (inv *Invariants) Finish() {
	if now := inv.eng.Elapsed(); now < inv.horizon {
		inv.violate("liveness", now, "run quiesced at %v, before the %v horizon: deadlock", now, inv.horizon)
	}
}
