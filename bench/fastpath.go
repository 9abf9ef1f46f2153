package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
)

// gridd-fastpath: the uncontended Ethernet job (probe, acquire, release)
// at a fixed rate over the real socket. Three round trips and zero
// waiting, so the wire, both JSON codecs, net/http, the handler fast
// path and the watchdog's arm and stop do all the work.

const (
	// fastRate is the offered load, open loop. The closed-loop capacity
	// of two connections is 4.3 k jobs/s on a quiet host and nearer 3 k
	// while a neighbour is busy; at 2000 jobs/s such a spell put queueing
	// on top of the slower service and moved op_p50_ms from 0.91 ms to
	// 1.27 ms, at 1000 jobs/s the job waits for no one.
	fastRate    = 1000
	fastPools   = 8 // resources pool0..pool7, capacity 64, quantum 30 s
	fastHolders = 64
	fastLimitMS = 5 // loadgen.within_limit_frac
)

var (
	poolNames   = names("pool", fastPools)
	holderNames = names("h", fastHolders)
)

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// ethernetJob is the paper's discipline against the daemon: carrier
// sense by Probe, then Acquire with an immediate verdict, hold for
// hold, Release. A busy verdict is a collision. The spans are recorded
// here, around the calls into each layer.
func ethernetJob(ctx context.Context, w *worker, c *core.Client, res, holder string, hold time.Duration) error {
	if w.tally != nil {
		c.Observer = w.tally
	}
	c.Sense = func(ctx context.Context) error {
		id := w.rec.begin("griddclient.Probe")
		pr, err := w.cli.Probe(ctx, res)
		w.rec.end(id)
		if err != nil {
			return err
		}
		if pr.Free < 1 {
			return core.Deferred(res)
		}
		return nil
	}
	id := w.rec.begin("core.Do")
	err := c.Do(ctx, func(ctx context.Context) error {
		id := w.rec.begin("griddclient.Acquire")
		l, err := w.cli.Acquire(ctx, gridd.AcquireRequest{Resource: res, Holder: holder, Units: 1})
		w.rec.end(id)
		if errors.Is(err, griddclient.ErrBusy) {
			return core.Collision(res, err)
		}
		if err != nil {
			return err
		}
		if hold > 0 {
			time.Sleep(hold)
		}
		id = w.rec.begin("griddclient.Release")
		err = l.Release(ctx)
		w.rec.end(id)
		return err
	})
	w.rec.end(id)
	return err
}

// fastJob runs job i of the fast path: one attempt only (a zero Limit),
// so a deferral or a collision, which must not happen here, fails it.
func fastJob(pool, holder []uint8) func(ctx context.Context, w *worker, i int) error {
	return func(ctx context.Context, w *worker, i int) error {
		c := core.Client{Rt: w.rt, Discipline: core.Ethernet}
		return ethernetJob(ctx, w, &c, poolNames[pool[i%len(pool)]], holderNames[holder[i%len(holder)]], 0)
	}
}

func fastpathWorkload(seed int64) *griddWorkload {
	var res []string
	for _, p := range poolNames {
		res = append(res, p+":64:30s")
	}
	// The warm-up and the saturation loop reuse the draw cyclically.
	const draw = 1 << 12
	job := fastJob(picks(seed, draw, fastPools), picks(seed+1, draw, fastHolders))
	return &griddWorkload{
		res:     res,
		limitMS: fastLimitMS,
		warm:    job,
		job:     job,
		phase: func(ctx context.Context, s *session, seed int64, d time.Duration) *phaseResult {
			n := int(fastRate * d.Seconds())
			return openPhase(ctx, s, arrivals(seed, fastRate, n),
				fastJob(picks(seed+2, n, fastPools), picks(seed+3, n, fastHolders)))
		},
		stages: fastpathStages,
	}
}

// openPhase runs an open-loop phase and sorts its samples.
func openPhase(ctx context.Context, s *session, due []time.Duration,
	job func(ctx context.Context, w *worker, i int) error) *phaseResult {
	ls := openLoop(ctx, s.w[:], due, job)
	late := append([]float64(nil), ls.late...)
	sort.Float64s(late)
	return &phaseResult{
		lat:        ls.completed(),
		attempted:  int64(len(due)),
		failed:     ls.failed,
		firstErr:   ls.firstErr,
		late:       late,
		backlogMax: ls.backlogMax,
	}
}

func runFastpath(e *env, traced bool) (*outcome, error) {
	return runGridd(e, traced, fastpathWorkload(e.seed))
}

// coreTally counts what the discipline loop did, as its Observer. It
// is installed on the traced run only.
type coreTally struct{ attempts, defers, collisions, successes int64 }

func (t *coreTally) Observe(ev core.Event, _ time.Time, _ error) {
	switch ev {
	case core.EvAttempt:
		t.attempts++
	case core.EvDefer:
		t.defers++
	case core.EvCollision:
		t.collisions++
	case core.EvSuccess:
		t.successes++
	}
}

func (t *coreTally) add(u *coreTally) {
	t.attempts += u.attempts
	t.defers += u.defers
	t.collisions += u.collisions
	t.successes += u.successes
}

// report sets the core.* ratios. A try here is every pass of the
// discipline loop: a deferral uses one up without reaching the
// resource, so success_per_attempt is useful outcomes over tries.
func (t *coreTally) report(o *outcome, jobs float64) {
	tries := float64(t.attempts + t.defers)
	if tries == 0 {
		return
	}
	o.set("core.attempts_per_job", tries/jobs)
	o.set("core.defers_per_job", float64(t.defers)/jobs)
	o.set("core.collisions_per_job", float64(t.collisions)/jobs)
	o.set("core.success_per_attempt", float64(t.successes)/tries)
}
