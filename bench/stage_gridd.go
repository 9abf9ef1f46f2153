package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
)

// The gridd stages drive gridd.NewServer(cfg).Handler().ServeHTTP in
// this process, on one goroutine, with no socket: what is timed is the
// server's codec, its mutex and the lease state, and nothing of
// net/http's connection handling. Each is a fixed number of
// iterations; the value is the median ServeHTTP time.

const stageDeepBook = 4096 // bookings in the ".d4096" books

var (
	stageIters     = 2000
	stageParkIters = 300
)

// sink is a reusable http.ResponseWriter, so that the stage's
// allocation counts are the handler's and not a recorder's.
type sink struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(status int)      { s.status = status }
func (s *sink) Write(p []byte) (int, error) { return s.body.Write(p) }
func (s *sink) reset() {
	clear(s.hdr)
	s.status = http.StatusOK
	s.body.Reset()
}

// stage is one in-process server plus the counters of the last call.
type stage struct {
	h      http.Handler
	w      sink
	took   time.Duration
	allocs uint64
	bytes  uint64
	// mem, when set, brackets ServeHTTP with ReadMemStats (slow, so
	// timing passes leave it off).
	mem bool
}

func newStage(res ...gridd.ResourceConfig) *stage {
	return &stage{h: gridd.NewServer(gridd.Config{Resources: res}).Handler(), w: sink{hdr: http.Header{}}}
}

// do serves one request and decodes a 2xx body into out. The request
// is built before the clock starts and the reply decoded after it
// stops. It returns the HTTP status.
func (st *stage) do(method, path string, in, out any) int {
	var body bytes.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			panic(err) // wire structs always marshal
		}
		body.Reset(buf)
	}
	req, err := http.NewRequest(method, path, &body)
	if err != nil {
		panic(err) // constant paths
	}
	st.w.reset()
	var m0, m1 runtime.MemStats
	if st.mem {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	st.h.ServeHTTP(&st.w, req)
	st.took = time.Since(t0)
	if st.mem {
		runtime.ReadMemStats(&m1)
		st.allocs, st.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	if out != nil && st.w.status/100 == 2 {
		if err := json.Unmarshal(st.w.body.Bytes(), out); err != nil {
			return -1
		}
	}
	return st.w.status
}

// want fails the stage when a call did not answer as scripted.
func want(what string, got, status int) error {
	if got != status {
		return fmt.Errorf("stage %s: HTTP %d, want %d", what, got, status)
	}
	return nil
}

func acquireReq(res string) gridd.AcquireRequest {
	return gridd.AcquireRequest{Resource: res, Holder: "stage", Units: 1}
}

func releaseReq(l gridd.LeaseReply) gridd.ReleaseRequest {
	return gridd.ReleaseRequest{Resource: l.Resource, LeaseID: l.LeaseID, Epoch: l.Epoch, Units: l.Units}
}

// stageFast times the three handlers the fast-path job crosses, renew,
// the watchdog's arm+stop, and the job's server-side allocations.
func stageFast(o *outcome) (handlerMean float64, err error) {
	st := newStage(
		gridd.ResourceConfig{Name: "q30", Capacity: 64, Quantum: 30 * time.Second},
		gridd.ResourceConfig{Name: "q0", Capacity: 64},
	)
	var probe, acq, rel, renew, pair30, pair0 []float64
	for i := 0; i < stageIters; i++ {
		var l gridd.LeaseReply
		if err := want("probe", st.do("GET", "/probe/q30", nil, nil), 200); err != nil {
			return 0, err
		}
		probe = append(probe, us(st.took))
		if err := want("acquire", st.do("POST", "/acquire", acquireReq("q30"), &l), 200); err != nil {
			return 0, err
		}
		a := st.took
		acq = append(acq, us(a))
		if err := want("renew", st.do("POST", "/renew", gridd.RenewRequest{Resource: "q30", LeaseID: l.LeaseID, Epoch: l.Epoch}, nil), 200); err != nil {
			return 0, err
		}
		renew = append(renew, us(st.took))
		if err := want("release", st.do("POST", "/release", releaseReq(l), nil), 200); err != nil {
			return 0, err
		}
		rel = append(rel, us(st.took))
		pair30 = append(pair30, us(a+st.took))

		// The same pair with no tenure: no watchdog to arm or stop.
		if err := want("acquire q0", st.do("POST", "/acquire", acquireReq("q0"), &l), 200); err != nil {
			return 0, err
		}
		a = st.took
		if err := want("release q0", st.do("POST", "/release", releaseReq(l), nil), 200); err != nil {
			return 0, err
		}
		pair0 = append(pair0, us(a+st.took))
	}
	o.set("gridd.handler_probe_us", median(probe))
	o.set("gridd.handler_acquire_us", median(acq))
	o.set("gridd.handler_release_us", median(rel))
	o.set("gridd.handler_renew_us", median(renew))
	o.set("gridd.watchdog_arm_stop_us", median(pair30)-median(pair0))

	st.mem = true
	var allocs, bytes uint64
	for i := 0; i < stageIters/4; i++ {
		var l gridd.LeaseReply
		st.do("GET", "/probe/q30", nil, nil)
		allocs, bytes = allocs+st.allocs, bytes+st.bytes
		st.do("POST", "/acquire", acquireReq("q30"), &l)
		allocs, bytes = allocs+st.allocs, bytes+st.bytes
		if err := want("release", st.do("POST", "/release", releaseReq(l), nil), 200); err != nil {
			return 0, err
		}
		allocs, bytes = allocs+st.allocs, bytes+st.bytes
	}
	o.set("gridd.handler_allocs_per_job", float64(allocs)/float64(stageIters/4))
	o.set("gridd.handler_alloc_bytes_per_job", float64(bytes)/float64(stageIters/4))
	return (median(probe) + median(acq) + median(rel)) / 3, nil
}

// stageBusy times the 409 reply of an immediate acquire on a held
// capacity-1 resource.
func stageBusy(o *outcome) error {
	st := newStage(gridd.ResourceConfig{Name: "lane", Capacity: 1, Quantum: 30 * time.Second})
	var l gridd.LeaseReply
	if err := want("acquire", st.do("POST", "/acquire", acquireReq("lane"), &l), 200); err != nil {
		return err
	}
	var busy []float64
	for i := 0; i < stageIters; i++ {
		if err := want("busy acquire", st.do("POST", "/acquire", acquireReq("lane"), nil), 409); err != nil {
			return err
		}
		busy = append(busy, us(st.took))
	}
	o.set("gridd.handler_busy_us", median(busy))
	return nil
}

// stageStale times the 410 reply to the release of a retired lease.
func stageStale(o *outcome) error {
	st := newStage(gridd.ResourceConfig{Name: "wedge", Capacity: 1, Quantum: 30 * time.Second})
	var l gridd.LeaseReply
	st.do("POST", "/acquire", acquireReq("wedge"), &l)
	if err := want("release", st.do("POST", "/release", releaseReq(l), nil), 200); err != nil {
		return err
	}
	var stale []float64
	for i := 0; i < stageIters; i++ {
		if err := want("stale release", st.do("POST", "/release", releaseReq(l), nil), 410); err != nil {
			return err
		}
		stale = append(stale, us(st.took))
	}
	o.set("gridd.handler_stale_us", median(stale))
	return nil
}

// stageReserve times /reserve on a book holding depth claimed-and-
// released bookings (the map never retires them, and peakLoad scans
// it), and /claim on the empty book. Each timed reserve is cancelled,
// so the depth stays put.
func stageReserve(o *outcome) error {
	reserveReq := gridd.ReserveRequest{Resource: "book", Holder: "stage", Units: 1, TenureNS: int64(time.Hour)}
	for _, depth := range []int{0, stageDeepBook} {
		st := newStage(gridd.ResourceConfig{Name: "book", Capacity: 1 << 20, Quantum: 30 * time.Second})
		var rr gridd.ReserveReply
		var l gridd.LeaseReply
		var claim []float64
		for i := 0; i < depth; i++ {
			st.do("POST", "/reserve", reserveReq, &rr)
			st.do("POST", "/claim", gridd.ClaimRequest{Resource: "book", BookingID: rr.BookingID}, &l)
			if err := want("release", st.do("POST", "/release", releaseReq(l), nil), 200); err != nil {
				return err
			}
		}
		var reserve []float64
		for i := 0; i < stageIters; i++ {
			if err := want("reserve", st.do("POST", "/reserve", reserveReq, &rr), 200); err != nil {
				return err
			}
			reserve = append(reserve, us(st.took))
			if err := want("cancel", st.do("POST", "/cancel", gridd.CancelRequest{Resource: "book", BookingID: rr.BookingID}, nil), 200); err != nil {
				return err
			}
		}
		o.set(fmt.Sprintf("gridd.handler_reserve_us.d%d", depth), median(reserve))
		if depth != 0 {
			continue
		}
		for i := 0; i < stageIters/4; i++ {
			st.do("POST", "/reserve", reserveReq, &rr)
			if err := want("claim", st.do("POST", "/claim", gridd.ClaimRequest{Resource: "book", BookingID: rr.BookingID}, &l), 200); err != nil {
				return err
			}
			claim = append(claim, us(st.took))
			st.do("POST", "/release", releaseReq(l), nil)
		}
		o.set("gridd.handler_claim_us", median(claim))
	}
	return nil
}

// stageParkHandoff times the server's share of a FIFO handoff, with
// two goroutines and no socket: from the start of the release's
// ServeHTTP to the return of the parked acquire's ServeHTTP.
func stageParkHandoff(o *outcome) error {
	srv := gridd.NewServer(gridd.Config{Resources: []gridd.ResourceConfig{{Name: "lane", Capacity: 1, Quantum: 30 * time.Second}}})
	a := &stage{h: srv.Handler(), w: sink{hdr: http.Header{}}}
	b := &stage{h: srv.Handler(), w: sink{hdr: http.Header{}}}
	type parked struct {
		at     time.Time
		status int
		lease  gridd.LeaseReply
	}
	var handoff []float64
	for i := 0; i < stageParkIters; i++ {
		var la gridd.LeaseReply
		if err := want("acquire", a.do("POST", "/acquire", acquireReq("lane"), &la), 200); err != nil {
			return err
		}
		got := make(chan parked)
		go func() {
			var p parked
			req := acquireReq("lane")
			req.WaitNS = int64(parkWait)
			p.status = b.do("POST", "/acquire", req, &p.lease)
			p.at = time.Now()
			got <- p
		}()
		for { // wait until B is in the queue
			var pr gridd.ProbeReply
			a.do("GET", "/probe/lane", nil, &pr)
			if pr.Queue == 1 {
				break
			}
			runtime.Gosched()
		}
		t0 := time.Now()
		if err := want("release", a.do("POST", "/release", releaseReq(la), nil), 200); err != nil {
			return err
		}
		p := <-got
		if err := want("parked acquire", p.status, 200); err != nil {
			return err
		}
		handoff = append(handoff, us(p.at.Sub(t0)))
		if err := want("release", a.do("POST", "/release", releaseReq(p.lease), nil), 200); err != nil {
			return err
		}
	}
	o.set("gridd.handler_park_handoff_us", median(handoff))
	return nil
}

// stageClientAllocs counts what one fast-path job allocates in the
// client process: sequential jobs on one connection, MemStats deltas.
func stageClientAllocs(e *env, o *outcome, gw *griddWorkload) error {
	s, err := openSession(e.ctx, e.gridd, gw.res, e.seed, false, gw.warm)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < stageIters; i++ {
		if err := gw.job(e.ctx, s.w[0], i); err != nil {
			s.abort()
			return fmt.Errorf("stage client allocs: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	o.set("griddclient.allocs_per_job", float64(m1.Mallocs-m0.Mallocs)/float64(stageIters))
	o.set("griddclient.alloc_bytes_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(stageIters))
	_, err = s.close()
	return err
}

func fastpathStages(e *env, o *outcome, tracedP50 float64) error {
	handlers, err := stageFast(o)
	if err != nil {
		return err
	}
	o.set("wire.server_other_us", o.values["wire.first_byte_us"]-handlers)
	if err := stageClientAllocs(e, o, fastpathWorkload(e.seed)); err != nil {
		return err
	}
	// Every job here must be one attempt: the fast path never defers
	// and never collides.
	if a := o.values["core.attempts_per_job"]; a != 1 {
		o.problem("core.attempts_per_job = %v on the fast path, want exactly 1", a)
	}

	// The budget, written down before measuring: unloaded, the job is
	// the discipline loop, three codecs and three round trips.
	v := o.values
	sum := (v["core.do_self_us"] + v["griddclient.codec_self_us"] + 3*v["wire.roundtrip_us"]) / 1e3
	o.set("loadgen.budget_sum_ms", sum)
	o.note("budget: core.do_self + codec_self + 3 x wire.roundtrip = %.4f ms; measured traced op_p50_ms = %.4f ms; difference %.4f ms (send lateness and queueing)",
		sum, tracedP50, tracedP50-sum)
	return nil
}

func revokeStages(e *env, o *outcome, tracedP50 float64) error {
	// What the revocation itself added to the tenure and one reply.
	o.set("gridd.revoke_lag_us", tracedP50*1e3-us(revokeTenure)-o.values["wire.roundtrip_us"])
	return stageStale(o)
}

func reserveStages(e *env, o *outcome, tracedP50 float64) error {
	return stageReserve(o)
}

func parkStages(e *env, o *outcome, tracedP50 float64) error {
	if err := stageBusy(o); err != nil {
		return err
	}
	if err := stageParkHandoff(o); err != nil {
		return err
	}
	return stageCollide(e, o)
}

// sleepTimer wraps a Runtime to time its Sleep: the backoff a
// discipline imposes.
type sleepTimer struct {
	core.Runtime
	slept time.Duration
}

func (s *sleepTimer) Sleep(ctx context.Context, d time.Duration) error {
	t0 := time.Now()
	err := s.Runtime.Sleep(ctx, d)
	s.slept += time.Since(t0)
	return err
}

const (
	collideRate = 250 // paired arrivals/s
	collideHold = 200 * time.Microsecond
)

// stageCollide is the traced-only ethernet-collide phase: both
// connections run the Ethernet job on the capacity-1 lane at paired
// arrivals, so carrier sense defers, acquires collide and backoff
// sleeps. It counts what the discipline did per job.
func stageCollide(e *env, o *outcome) error {
	gw := parkWorkload()
	s, err := openSession(e.ctx, e.gridd, gw.res, e.seed, false, gw.warm)
	if err != nil {
		return err
	}
	n := int(collideRate * e.dur(0.15).Seconds())
	one := arrivals(e.seed, collideRate, n)
	due := make([]time.Duration, 0, 2*n)
	for _, d := range one {
		due = append(due, d, d)
	}
	var slept [nConns]sleepTimer
	for i, w := range s.w {
		slept[i].Runtime = w.rt
		w.tally = &coreTally{}
	}
	ls := openLoop(e.ctx, s.w[:], due, func(ctx context.Context, w *worker, i int) error {
		c := core.Client{
			Rt:         &slept[w.id],
			Discipline: core.Ethernet,
			Limit:      core.For(5 * time.Second),
			Backoff:    &core.Backoff{Base: 500 * time.Microsecond, Cap: 16 * time.Millisecond, Factor: 2, RandMin: 1, RandMax: 2},
		}
		return ethernetJob(ctx, w, &c, "lane", holderNames[w.id], collideHold)
	})
	if ls.firstErr != nil {
		o.note("ethernet-collide: %d of %d jobs failed, first: %v", ls.failed, len(due), ls.firstErr)
	}
	var sum coreTally
	var backoff time.Duration
	for i, w := range s.w {
		sum.add(w.tally)
		backoff += slept[i].slept
	}
	sum.report(o, float64(len(due)))
	o.set("core.backoff_ms_per_job", ms(backoff)/float64(len(due)))
	o.attempted += int64(len(due))
	o.failed += ls.failed
	st, err := s.w[0].cli.Stats(e.ctx, "lane")
	if err == nil {
		err = checkLedger(st)
	}
	if err != nil {
		o.problem("ethernet-collide ledger: %v", err)
	}
	if _, err := s.close(); err != nil {
		o.problem("ethernet-collide: %v", err)
	}
	return nil
}
