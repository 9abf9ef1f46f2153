package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/gridd"
)

// griddReps is how many repetitions, each on a fresh daemon, one
// untraced run makes. A reported value is the median over repetitions
// of the per-repetition statistic, and setup_s the median of as many
// set-ups.
var griddReps = 5

// phaseResult is what one repetition's timed phase measured.
type phaseResult struct {
	lat        []float64 // completed operations, ms, ascending
	attempted  int64
	failed     int64
	firstErr   error
	late       []float64 // open loop only: send lateness, ms, ascending
	backlogMax int64
	missed     int64 // scripted phases: B had not parked when A let go
	problems   []string
}

// griddWorkload is the part of a gridd workload that differs: the
// resources, the job that warms a connection, the timed phase, and on
// the traced run the extra stages that give the layers' own numbers.
type griddWorkload struct {
	res     []string // cmd/gridd -res specs
	limitMS float64  // loadgen.within_limit_frac: share of operations within this
	warm    func(ctx context.Context, w *worker, i int) error
	phase   func(ctx context.Context, s *session, seed int64, d time.Duration) *phaseResult
	// job, when set, is the open-loop job, run closed-loop for the
	// saturation diagnostic.
	job func(ctx context.Context, w *worker, i int) error
	// stages runs after the traced repetition, whose metrics are already
	// in o; tracedP50 is that repetition's op_p50_ms.
	stages func(e *env, o *outcome, tracedP50 float64) error
}

// repResult is one repetition: the phase plus what the daemon and this
// process spent on it.
type repResult struct {
	*phaseResult
	setup, spawn, drain time.Duration
	daemonCPU, selfCPU  time.Duration
	peakMB              float64
	threads             int64
	stats               []gridd.StatsReply
	spans               []span
	spanPath            string
	dials, roundTrips   int64
	reqBytes, respBytes int64
	satPerSec           float64
	tally               coreTally
}

// griddRep runs one repetition: fresh daemon, warm-up, timed phase,
// ledger check, drain.
func griddRep(e *env, gw *griddWorkload, seed int64, d time.Duration, traced, saturate bool) (*repResult, error) {
	s, err := openSession(e.ctx, e.gridd, gw.res, seed, traced, gw.warm)
	if err != nil {
		return nil, err
	}
	for _, w := range s.w { // count the timed phase only
		w.c.roundTrips.Store(0)
		w.c.reqBytes.Store(0)
		w.c.respBytes.Store(0)
		if traced {
			w.tally = &coreTally{}
		}
	}
	meter, err := startCPU(s.d.pid())
	if err != nil {
		s.abort()
		return nil, err
	}
	r := &repResult{setup: s.setup, spawn: s.d.spawn}
	r.phaseResult = gw.phase(e.ctx, s, seed, d)
	if r.daemonCPU, r.selfCPU, err = meter.stop(); err != nil {
		s.abort()
		return nil, err
	}
	r.spans = s.spans()
	for _, w := range s.w {
		r.roundTrips += w.c.roundTrips.Load()
		r.reqBytes += w.c.reqBytes.Load()
		r.respBytes += w.c.respBytes.Load()
		if traced {
			r.tally.add(w.tally)
		}
	}
	if traced {
		path := filepath.Join(e.tmp, fmt.Sprintf("spans-%d.jsonl", seed))
		if err := writeSpans(path, s.recorders()); err != nil {
			s.abort()
			return nil, err
		}
		r.spanPath = path
	}
	if saturate && gw.job != nil {
		if r.satPerSec, err = closedLoop(e.ctx, s.w[:], e.dur(0.1), gw.job); err != nil {
			r.problems = append(r.problems, fmt.Sprintf("saturation loop: %v", err))
		}
	}
	for _, spec := range gw.res {
		name, _, _ := strings.Cut(spec, ":")
		st, err := s.w[0].cli.Stats(e.ctx, name)
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("stats %s: %v", name, err))
			continue
		}
		if err := checkLedger(st); err != nil {
			r.problems = append(r.problems, "ledger: "+err.Error())
		}
		r.stats = append(r.stats, st)
	}
	// Two sockets, unless net/http gave one up: it will not reuse a
	// connection whose write goroutine has not reported back 50 ms after
	// the reply arrived, which a host stall can cause (seen once in 200
	// repetitions). So the count is reported, not required.
	for _, w := range s.w {
		r.dials += w.c.dials.Load()
	}
	if r.peakMB, r.threads, err = procStatus(s.d.pid()); err != nil {
		s.abort()
		return nil, err
	}
	if r.drain, err = s.close(); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	return r, nil
}

// absorb adds a repetition's operations and failed checks to the run's.
func (o *outcome) absorb(r *repResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	o.problems = append(o.problems, r.problems...)
	if r.firstErr != nil {
		o.note("%d of %d operations failed, first: %v", r.failed, r.attempted, r.firstErr)
	}
}

// runGridd is the body of every gridd workload.
func runGridd(e *env, traced bool, gw *griddWorkload) (*outcome, error) {
	o := newOutcome()
	if traced {
		return o, griddTraced(e, o, gw)
	}
	var p50, rss, setup []float64
	for rep := 0; rep < griddReps; rep++ {
		r, err := griddRep(e, gw, e.seed*100+int64(rep), e.dur(1/float64(griddReps)), false, false)
		if err != nil {
			return nil, err
		}
		o.absorb(r)
		p50 = append(p50, percentile(r.lat, 50))
		rss = append(rss, r.peakMB)
		setup = append(setup, r.setup.Seconds())
	}
	o.set("op_p50_ms", median(p50))
	o.set("peak_rss_mb", median(rss))
	o.set("setup_s", median(setup))
	return o, nil
}

// griddTraced is the traced run: one untraced repetition for the
// generator's diagnostics and the saturation proxy, one repetition
// with spans on for the layer budget, then the workload's stages.
func griddTraced(e *env, o *outcome, gw *griddWorkload) error {
	plain, err := griddRep(e, gw, e.seed*100, e.dur(0.25), false, true)
	if err != nil {
		return err
	}
	tr, err := griddRep(e, gw, e.seed*100, e.dur(0.25), true, false)
	if err != nil {
		return err
	}
	o.absorb(plain)
	o.absorb(tr)

	// loadgen: from the untraced repetition.
	n := float64(len(plain.lat))
	o.set("loadgen.samples", n)
	o.set("loadgen.op_p90_ms", percentile(plain.lat, 90))
	o.set("loadgen.op_p99_ms", percentile(plain.lat, 99))
	o.set("loadgen.op_p999_ms", percentile(plain.lat, 99.9))
	if p, v, ok := tail(plain.lat); ok {
		o.set("loadgen.op_tail_pct", p)
		o.set("loadgen.op_tail_ms", v)
	}
	within := sort.SearchFloat64s(plain.lat, gw.limitMS)
	o.set("loadgen.within_limit_frac", float64(within)/float64(plain.attempted))
	if plain.late != nil {
		o.set("loadgen.late_p50_ms", percentile(plain.late, 50))
		o.set("loadgen.late_p99_ms", percentile(plain.late, 99))
		o.set("loadgen.backlog_max", float64(plain.backlogMax))
	}
	if plain.satPerSec > 0 {
		o.set("loadgen.sat_ops_per_s", plain.satPerSec)
	}
	o.set("loadgen.park_missed", float64(plain.missed+tr.missed))
	p50off, p50on := percentile(plain.lat, 50), percentile(tr.lat, 50)
	if p50off > 0 {
		o.set("loadgen.trace_overhead_frac", p50on/p50off-1)
	}
	o.set("griddclient.proc_cpu_us_per_job", us(plain.selfCPU)/float64(plain.attempted))
	o.set("daemon.cpu_us_per_job", us(plain.daemonCPU)/float64(plain.attempted))
	o.set("daemon.spawn_ms", ms(plain.spawn))
	o.set("daemon.drain_ms", ms(plain.drain))
	o.set("daemon.threads", float64(plain.threads))

	// Spans: from the traced repetition.
	o.note("%d spans written to %s", len(tr.spans), tr.spanPath)
	for k, v := range spanLayers(tr.spans) {
		o.set(k, v)
	}
	jobs := float64(tr.attempted)
	tr.tally.report(o, jobs)
	o.set("griddclient.roundtrips_per_job", float64(tr.roundTrips)/jobs)
	o.set("griddclient.req_bytes_per_job", float64(tr.reqBytes)/jobs)
	o.set("griddclient.resp_bytes_per_job", float64(tr.respBytes)/jobs)
	o.set("wire.new_conns", float64(tr.dials))

	// gridd: the daemon's own counters for the traced repetition.
	var tot gridd.StatsReply
	for _, st := range tr.stats {
		tot.Grants += st.Grants
		tot.Rejects += st.Rejects
		tot.Revokes += st.Revokes
		tot.Stales += st.Stales
		tot.Timeouts += st.Timeouts
		tot.Admits += st.Admits
		tot.BookRejects += st.BookRejects
		if st.MaxWaitNS > tot.MaxWaitNS {
			tot.MaxWaitNS = st.MaxWaitNS
		}
	}
	o.set("gridd.grants", float64(tot.Grants))
	o.set("gridd.rejects", float64(tot.Rejects))
	o.set("gridd.revokes", float64(tot.Revokes))
	o.set("gridd.stales", float64(tot.Stales))
	o.set("gridd.timeouts", float64(tot.Timeouts))
	o.set("gridd.admits", float64(tot.Admits))
	o.set("gridd.book_rejects", float64(tot.BookRejects))
	if tot.Grants > 0 {
		o.set("gridd.busy_per_grant", float64(tot.Rejects)/float64(tot.Grants))
	}
	o.set("gridd.max_wait_ms", float64(tot.MaxWaitNS)/1e6)

	return gw.stages(e, o, p50on)
}

// spanLayers turns one repetition's spans into the per-layer medians.
func spanLayers(spans []span) map[string]float64 {
	out := map[string]float64{}
	put := func(name string, xs []float64) {
		if len(xs) > 0 {
			out[name] = median(xs)
		}
	}
	// Codec share: per job, the sum over its successful calls of call
	// minus round trip (marshal, request build, decode). Error replies
	// (".busy", ".stale") are kept apart: they take wireError's path.
	self := selfTimes(spans)
	durs := map[string][]float64{} // by span name, us
	perJob := map[int32]float64{}
	var doSelf, errSelf, rt, connWait, write, firstByte []float64
	for i := range spans {
		sp := &spans[i]
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur())/1e3)
		switch {
		case sp.Name == "core.Do":
			doSelf = append(doSelf, float64(self[i])/1e3)
		case strings.HasSuffix(sp.Name, ".busy") || strings.HasSuffix(sp.Name, ".stale"):
			errSelf = append(errSelf, float64(self[i])/1e3)
		case strings.HasPrefix(sp.Name, "griddclient."):
			perJob[sp.Job] += float64(self[i]) / 1e3
		case sp.Name == "wire.RoundTrip":
			if sp.Parent >= 0 && strings.HasSuffix(spans[sp.Parent].Name, ".park") {
				continue // a long poll is waiting, not wire
			}
			rt = append(rt, float64(sp.dur())/1e3)
			m := sp.Marks
			connWait = append(connWait, float64(m.GotConn.Load()-m.GetConn.Load())/1e3)
			write = append(write, float64(m.Wrote.Load()-m.GotConn.Load())/1e3)
			firstByte = append(firstByte, float64(m.FirstByte.Load()-m.Wrote.Load())/1e3)
		}
	}
	var codec []float64
	for _, v := range perJob {
		codec = append(codec, v)
	}
	put("core.do_self_us", doSelf)
	for _, call := range []string{"Probe", "Acquire", "Release", "Reserve", "Claim"} {
		put("griddclient."+strings.ToLower(call)+"_us", durs["griddclient."+call])
	}
	put("griddclient.codec_self_us", codec)
	put("griddclient.error_self_us", errSelf)
	put("wire.roundtrip_us", rt)
	put("wire.conn_wait_us", connWait)
	put("wire.write_us", write)
	put("wire.first_byte_us", firstByte)
	return out
}
