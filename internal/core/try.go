package core

import (
	"context"
	"time"

	"repro/internal/trace"
)

// Op is a fallible operation. Implementations must honor ctx: when the
// try budget expires mid-attempt the context is canceled and the op is
// expected to abandon its work promptly, mirroring ftsh's forcible
// termination of the process session.
type Op func(ctx context.Context) error

// Limit expresses ftsh's try budget: `try for 1 hour`, `try 5 times`, or
// `try for 1 hour or 3 times` — whichever is exhausted first ends the
// try. A zero field means that dimension is unbounded; a completely zero
// Limit permits exactly one attempt.
type Limit struct {
	Duration time.Duration
	Attempts int
}

// For returns a duration-only limit.
func For(d time.Duration) Limit { return Limit{Duration: d} }

// Times returns an attempts-only limit.
func Times(n int) Limit { return Limit{Attempts: n} }

// ForOrTimes returns a combined limit; either bound ends the try.
func ForOrTimes(d time.Duration, n int) Limit { return Limit{Duration: d, Attempts: n} }

// Event is a notification from the retry machinery to an Observer.
type Event int

// Event kinds reported to Observers.
const (
	EvAttempt   Event = iota // an attempt is starting
	EvSuccess                // the attempt succeeded
	EvFailure                // the attempt failed (generic)
	EvCollision              // the attempt failed with a collision
	EvDefer                  // carrier sense deferred the attempt
	EvBackoff                // the client is sleeping before a retry
	EvExhausted              // the try gave up
	EvReject                 // an admission controller refused the attempt outright
)

// String names the event kind.
func (e Event) String() string {
	switch e {
	case EvAttempt:
		return "attempt"
	case EvSuccess:
		return "success"
	case EvFailure:
		return "failure"
	case EvCollision:
		return "collision"
	case EvDefer:
		return "defer"
	case EvBackoff:
		return "backoff"
	case EvExhausted:
		return "exhausted"
	case EvReject:
		return "reject"
	default:
		return "unknown"
	}
}

// Observer receives discipline events; experiments use it to build the
// paper's figures. Implementations must be cheap and must not block.
type Observer interface {
	Observe(ev Event, at time.Time, detail error)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev Event, at time.Time, detail error)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event, at time.Time, detail error) { f(ev, at, detail) }

// nopObserver ignores all events.
type nopObserver struct{}

func (nopObserver) Observe(Event, time.Time, error) {}

// TryConfig parameterizes Try beyond its budget.
type TryConfig struct {
	// Backoff overrides the default paper backoff. Nil selects
	// NewBackoff(rt.Rand) for each Try invocation.
	Backoff *Backoff
	// Observer receives events; nil means none.
	Observer Observer
	// Sense, when non-nil, runs before every attempt. If it returns an
	// error the attempt is deferred (counts toward the attempt budget
	// and triggers backoff) without running the op: this is carrier
	// sense. The returned error should usually be Deferred(...).
	Sense func(ctx context.Context) error
	// NoBackoff disables inter-attempt delay entirely, producing the
	// paper's "fixed" client. It exists so the three disciplines share
	// one code path; prefer Client for discipline selection.
	NoBackoff bool
	// Budget, when non-nil, rate-limits retries with a token bucket:
	// each retry debits one token, and an empty bucket extends the
	// backoff sleep until the next token accrues (trace trigger
	// "budget"). Like Backoff it is a shared template, cloned per Try.
	// Ignored under NoBackoff.
	Budget *RetryBudget
	// Trace, when non-nil, receives trace events mirroring the Observer
	// stream plus probe/backoff intervals. Nil (the default) costs one
	// pointer comparison per event site.
	Trace *trace.Client
	// Span, when non-empty, wraps the whole try in a named trace span.
	Span string
	// SpanOnly suppresses per-attempt trace events (the caller emits its
	// own, e.g. one per forany branch) while keeping the span and the
	// backoff intervals.
	SpanOnly bool
	// Site labels the contended resource in trace events ("file-nr",
	// "buffer", "server", ...).
	Site string
}

// Try implements ftsh's try construct: run op until it succeeds or the
// limit is exhausted, backing off exponentially (with randomization)
// between failures. When a Duration budget is set, the whole try —
// including any in-flight attempt — is canceled at the deadline, and the
// attempt's error is reported as exhaustion.
//
// Try returns nil on success; on exhaustion it returns *ExhaustedError;
// if ctx itself is canceled it returns the context error.
func Try(ctx context.Context, rt Runtime, lim Limit, cfg TryConfig, op Op) error {
	obs := cfg.Observer
	if obs == nil {
		obs = nopObserver{}
	}
	tr := cfg.Trace
	etr := tr // event emitter; nil under SpanOnly (nil emits nothing)
	if cfg.SpanOnly {
		etr = nil
	}
	if cfg.Span != "" {
		span := tr.SpanBegin(cfg.Span)
		defer tr.SpanEnd(span)
	}
	if lim.Duration <= 0 && lim.Attempts <= 0 {
		lim.Attempts = 1 // a zero limit permits exactly one attempt
	}
	// The backoff and the budget are this Try's own, on its stack: a
	// TryConfig is a shared template (each submitter gets the same one),
	// and mutating its Backoff's cursor or Rand field, or its bucket,
	// would be a data race.
	var bo Backoff
	if cfg.Backoff == nil {
		bo = paperBackoff(rt.Rand)
	} else {
		bo = *cfg.Backoff
		bo.Reset()
		if bo.Rand == nil {
			bo.Rand = rt.Rand
		}
	}
	var budget *RetryBudget
	var bucket RetryBudget
	if cfg.Budget != nil {
		bucket = *cfg.Budget
		budget = &bucket
	}

	tryCtx := ctx
	cancel := context.CancelFunc(func() {})
	if lim.Duration > 0 {
		tryCtx, cancel = rt.WithTimeout(ctx, lim.Duration)
	}
	defer cancel()

	start := rt.Now()
	attempts := 0
	var last error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := tryCtx.Err(); err != nil {
			break // budget expired
		}
		if lim.Attempts > 0 && attempts >= lim.Attempts {
			break
		}
		attempts++

		var err error
		trigger := "failure"
		if cfg.Sense != nil {
			etr.Probe(cfg.Site)
			serr := cfg.Sense(tryCtx)
			etr.CarrierSense(cfg.Site, serr != nil)
			if serr != nil {
				err = serr
				trigger = "defer"
				obs.Observe(EvDefer, rt.Now(), serr)
				etr.Defer(cfg.Site)
			}
		}
		if err == nil {
			obs.Observe(EvAttempt, rt.Now(), nil)
			etr.Attempt()
			err = op(tryCtx)
			switch {
			case err == nil:
				obs.Observe(EvSuccess, rt.Now(), nil)
				etr.Success()
				return nil
			case IsCollision(err):
				trigger = "collision"
				obs.Observe(EvCollision, rt.Now(), err)
				etr.Collision(cfg.Site)
			case IsRejected(err):
				// Admission control refused the attempt before any
				// resource was consumed. The backoff that follows is a
				// penalty like a collision's, but observers can tell the
				// two apart — the book was full, the wire was not hot.
				trigger = "reject"
				obs.Observe(EvReject, rt.Now(), err)
				etr.Reject(cfg.Site, Rejection(err).Shortfall)
			default:
				if IsDeferred(err) {
					// The op itself deferred (e.g. a forany whose every
					// branch sensed a busy carrier): the coming backoff is
					// a polite wait, not a collision penalty.
					trigger = "defer"
				}
				obs.Observe(EvFailure, rt.Now(), err)
				etr.Failure()
			}
		}
		last = err

		if tryCtx.Err() != nil {
			break // attempt was cut short by the budget
		}
		if lim.Attempts > 0 && attempts >= lim.Attempts {
			break
		}
		if !cfg.NoBackoff {
			d := bo.Next()
			if wait := budget.debit(rt.Now()); wait > d {
				// The bucket is dry and the next token lands after the
				// planned backoff would have ended: stretch the sleep to
				// the token instead of retrying on schedule.
				d = wait
				trigger = "budget"
			}
			obs.Observe(EvBackoff, rt.Now(), nil)
			tr.BackoffStart(d, trigger)
			serr := rt.Sleep(tryCtx, d)
			tr.BackoffEnd()
			if serr != nil {
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		// The caller's own context died; propagate rather than report
		// exhaustion, so enclosing constructs unwind promptly.
		return err
	}
	ex := &ExhaustedError{Attempts: attempts, Elapsed: rt.Now().Sub(start), Last: last}
	obs.Observe(EvExhausted, rt.Now(), ex)
	tr.Exhausted()
	return ex
}

// Forany implements ftsh's forany: run body on each alternative in turn
// until one succeeds, returning the winning alternative. If every
// alternative fails, it returns *AllFailedError. If shuffle is true the
// order is randomized per call (breaking herd behaviour among clients).
func Forany[T any](ctx context.Context, rt Runtime, items []T, shuffle bool, body func(ctx context.Context, item T) error) (T, error) {
	var zero T
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	if shuffle {
		for i := len(order) - 1; i > 0; i-- {
			j := int(rt.Rand() * float64(i+1))
			if j > i {
				j = i
			}
			order[i], order[j] = order[j], order[i]
		}
	}
	errs := make([]error, 0, len(items))
	for _, idx := range order {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		err := body(ctx, items[idx])
		if err == nil {
			return items[idx], nil
		}
		errs = append(errs, err)
	}
	return zero, &AllFailedError{Errs: errs}
}

// Forall implements ftsh's forall: run body on every alternative in
// parallel. If any branch fails, the remaining branches are canceled and
// Forall returns *BranchError; otherwise it returns nil.
func Forall[T any](ctx context.Context, rt Runtime, items []T, body func(ctx context.Context, rt Runtime, item T) error) error {
	return ForallN(ctx, rt, 0, items, body)
}

// ForallN is Forall with at most limit branches in flight (limit <= 0
// means unlimited) — the §4 note that forall's process creation "must
// be governed by an Ethernet-like algorithm": local resources bound how
// many branches may run, and the rest queue for admission.
func ForallN[T any](ctx context.Context, rt Runtime, limit int, items []T, body func(ctx context.Context, rt Runtime, item T) error) error {
	if len(items) == 0 {
		return nil
	}
	branchCtx, cancel := rt.WithCancel(ctx)
	defer cancel()
	fns := make([]func(context.Context, Runtime) error, len(items))
	for i, item := range items {
		item := item
		fns[i] = func(ctx context.Context, rt Runtime) error {
			if err := ctx.Err(); err != nil {
				return err // a failed sibling aborted us before we started
			}
			err := body(ctx, rt, item)
			if err != nil {
				cancel() // abort the outstanding branches
			}
			return err
		}
	}
	errs := rt.Parallel(branchCtx, limit, fns)
	for _, err := range errs {
		if err != nil {
			return &BranchError{Errs: errs}
		}
	}
	return nil
}
