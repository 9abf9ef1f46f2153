package condor

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// SubmitterConfig shapes one submitter client, the §5 scenario-one
// workload: "a large number of clients attempting to submit jobs into a
// Condor system", each wrapping condor_submit in an ftsh try.
type SubmitterConfig struct {
	// Discipline selects Fixed, Aloha, or Ethernet behaviour, or the
	// Reservation discipline of ReserveLoop.
	Discipline core.Discipline
	// TryLimit bounds each work unit: the paper uses `try for 5 minutes`.
	TryLimit time.Duration
	// Threshold is the Ethernet carrier-sense level: defer while free
	// FDs < Threshold. The paper uses 1000.
	Threshold int
	// Window is the tenure a Reservation submitter books per
	// submission; only that discipline reads it. It must cover the
	// worst-case submission (setup, queueing, transfer) or honest
	// clients are revoked mid-service; the slack past the typical case
	// is capacity held but unused — reservation's standing overhead.
	Window time.Duration
	// ThinkTime separates a successful submission from the next job, the
	// cadence of a Chimera-style DAG dispatcher.
	ThinkTime time.Duration
	// Trace, when non-nil, records this submitter's attempt timeline.
	Trace *trace.Client
	// Backoff optionally overrides the paper-default backoff. Sharing
	// one template across submitters is safe: Try clones it per
	// invocation. Capping it near the lease quantum keeps a deferred
	// client's retry cadence inside the reclamation cycle.
	Backoff *core.Backoff
	// Budget optionally rate-limits retries (see core.RetryBudget):
	// under a partition the client waits for tokens instead of
	// storming. Shared template, cloned per work unit.
	Budget *core.RetryBudget
}

// DefaultSubmitterConfig mirrors the paper's scripts.
func DefaultSubmitterConfig(d core.Discipline) SubmitterConfig {
	return SubmitterConfig{
		Discipline: d,
		TryLimit:   5 * time.Minute,
		Threshold:  1000,
		ThinkTime:  time.Second,
	}
}

// Submitter is one client process's accounting.
type Submitter struct {
	// Submitted counts this client's successful submissions.
	Submitted int64
	// Exhausted counts work units abandoned after the try limit.
	Exhausted int64
}

// Loop runs the submitter until ctx is canceled: an endless sequence of
// jobs, each wrapped in a try with the configured discipline.
func (sub *Submitter) Loop(p core.Proc, ctx context.Context, cl *Cluster, cfg SubmitterConfig) {
	p.SetTracer(cfg.Trace)
	sense := core.ThresholdSense("file-nr", func() int64 { return cl.FDs.Sense().Free() }, int64(cfg.Threshold))
	client := &core.Client{
		Rt:         p,
		Discipline: cfg.Discipline,
		Limit:      core.For(cfg.TryLimit),
		Sense: func(ctx context.Context) error {
			err := sense(ctx)
			if err != nil {
				// A busy carrier means this client wants descriptors it
				// cannot get: start (or continue) its starvation clock.
				cl.FDs.NoteWant(p.Name())
			}
			return err
		},
		Backoff: cfg.Backoff,
		Budget:  cfg.Budget,
		Trace:   cfg.Trace,
		Site:    "fds",
		Span:    "submit",
	}
	for ctx.Err() == nil {
		// One work unit = one idempotency key: every retry inside the
		// try below names the same job, so a reply-drop retry cannot
		// submit it twice. The schedd mints the key — process names may
		// be shared across clients and cannot disambiguate work units.
		key := cl.Schedd.MintKey()
		err := client.Do(ctx, func(ctx context.Context) error {
			return cl.Schedd.SubmitKeyed(p, ctx, key)
		})
		switch {
		case err == nil:
			sub.Submitted++
			if cfg.ThinkTime > 0 {
				if p.Sleep(ctx, cfg.ThinkTime) != nil {
					return
				}
			}
		case ctx.Err() != nil:
			return
		default:
			sub.Exhausted++
		}
	}
}
