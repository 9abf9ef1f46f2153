package core

import (
	"context"
	"time"

	"repro/internal/trace"
)

// Discipline selects one of the client behaviours evaluated in §5 of
// the paper, plus the reservation rival the paper argues against.
type Discipline int

// The three disciplines compared throughout the paper's evaluation,
// plus Reservation, the advance-booking alternative.
const (
	// Fixed "aggressively repeats its assigned work without delay and
	// without regard to any sort of failure."
	Fixed Discipline = iota
	// Aloha "uses the ordinary ftsh try structure to repeat a work unit
	// with an exponential backoff and random factor in case of failure."
	Aloha
	// Ethernet "uses the same structure, but additionally adds a small
	// piece of code to perform carrier sense before accessing a
	// resource."
	Ethernet
	// Reservation books a capacity window in advance instead of sensing
	// and backing off: admission is granted or refused outright by an
	// interval book (lease.Book), and a granted window is enforced
	// server-side by the lease watchdog. This is the up-front admission
	// model of bandwidth-reservation frameworks, added here as the rival
	// the paper never tests.
	Reservation
)

// String names the discipline as in the paper's figure legends.
func (d Discipline) String() string {
	switch d {
	case Fixed:
		return "Fixed"
	case Aloha:
		return "Aloha"
	case Ethernet:
		return "Ethernet"
	case Reservation:
		return "Reservation"
	default:
		return "unknown"
	}
}

// Disciplines lists the paper's three disciplines in figure order. The
// seed figures (Fig 1-7) compare exactly these; Reservation joins only
// the figures that study it (FigRes), so the seed goldens stay
// byte-identical.
var Disciplines = []Discipline{Ethernet, Aloha, Fixed}

// AllDisciplines lists all four disciplines in figure order — the
// matrix the chaos sweeps and the differential harness cover.
var AllDisciplines = []Discipline{Ethernet, Aloha, Fixed, Reservation}

// ParseDiscipline converts a legend name to a Discipline.
func ParseDiscipline(s string) (Discipline, bool) {
	switch s {
	case "Fixed", "fixed":
		return Fixed, true
	case "Aloha", "aloha":
		return Aloha, true
	case "Ethernet", "ethernet":
		return Ethernet, true
	case "Reservation", "reservation", "res":
		return Reservation, true
	}
	return 0, false
}

// Client binds a discipline to an operation's retry policy. It is the
// library-level equivalent of the small ftsh scripts in §5: the same
// work unit wrapped in fixed, Aloha, or Ethernet behaviour.
type Client struct {
	// Rt supplies time, randomness, and concurrency.
	Rt Runtime
	// Discipline selects Fixed, Aloha, or Ethernet behaviour.
	Discipline Discipline
	// Limit bounds each Do: the ftsh `try for 5 minutes` around the
	// work unit.
	Limit Limit
	// Sense is the carrier-sense probe used only by the Ethernet
	// discipline. It must be cheap and must not consume the resource.
	// Return nil for "carrier idle"; any error defers the attempt.
	Sense func(ctx context.Context) error
	// Backoff optionally overrides the paper-default backoff (Aloha and
	// Ethernet only).
	Backoff *Backoff
	// Budget optionally rate-limits retries with a token bucket (see
	// RetryBudget): partitions then degrade into budget-paced waiting
	// instead of retry storms. Shared template, cloned per Do.
	Budget *RetryBudget
	// Observer receives discipline events.
	Observer Observer
	// Trace, when non-nil, records the client's attempt/backoff/sense
	// timeline; nil disables tracing at zero cost.
	Trace *trace.Client
	// Site labels the contended resource in trace events.
	Site string
	// Span, when non-empty, wraps each Do in a named trace span.
	Span string
}

// Do runs op under the client's discipline until it succeeds or the
// limit is exhausted.
func (c *Client) Do(ctx context.Context, op Op) error {
	cfg := TryConfig{Observer: c.Observer, Backoff: c.Backoff, Budget: c.Budget, Trace: c.Trace, Site: c.Site, Span: c.Span}
	switch c.Discipline {
	case Fixed:
		cfg.NoBackoff = true
	case Aloha:
		// plain try: backoff, no sense
	case Ethernet:
		cfg.Sense = c.Sense
	case Reservation:
		// Backoff like Aloha, but no carrier sense: admission lives in
		// the op itself, which asks the substrate's reservation book for
		// a window and surfaces a typed RejectedError when the book is
		// full. Try classifies that rejection separately from busy.
	}
	return Try(ctx, c.Rt, c.Limit, cfg, op)
}

// ThresholdSense builds a carrier-sense probe from a free-capacity
// observable: the probe defers while free() < threshold. This is the
// library form of the paper's
//
//	cut -f2 /proc/sys/fs/file-nr -> n
//	if ${n} .lt. 1000
//	   failure
//	end
//
// fragment used by the Ethernet job submitter.
func ThresholdSense(name string, free func() int64, threshold int64) func(ctx context.Context) error {
	deferred := Deferred(name) // one refusal, returned by every deferral
	return func(ctx context.Context) error {
		if free() < threshold {
			return deferred
		}
		return nil
	}
}

// errProbeDeferred is ProbeSense's deferral, built once.
var errProbeDeferred = Deferred("probe")

// ProbeSense builds a carrier-sense probe that performs a cheap trial
// interaction bounded by timeout — the 1-byte "flag file" fetch used by
// the Ethernet file reader in §5. The probe consumes its own small slice
// of the resource, so it is suited to services where availability cannot
// be observed passively.
func ProbeSense(rt Runtime, timeout time.Duration, probe Op) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		pctx, cancel := rt.WithTimeout(ctx, timeout)
		defer cancel()
		if err := probe(pctx); err != nil {
			return errProbeDeferred
		}
		return nil
	}
}
