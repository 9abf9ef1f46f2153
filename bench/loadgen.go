package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/griddclient"
)

// nConns is the size of the load generator: two connections, one
// worker goroutine each, never more than this host's two cores.
const nConns = 2

// warmJobs is how many jobs each connection runs before anything is
// timed, so the socket, the server's goroutines and both heaps exist.
// (This and the other counts are variables only so that the smoke test
// can run every workload at toy size; nothing else changes them.)
var warmJobs = 300

// worker owns one connection to the daemon and runs jobs on it from
// one goroutine.
type worker struct {
	id  int
	c   *conn
	cli *griddclient.Client
	rt  core.Runtime
	rec *recorder // nil unless this is the traced run
	// tally, when set, observes the discipline loop of the Ethernet job.
	tally *coreTally
}

// session is one repetition's world: a fresh daemon and two warmed
// connections. setup is exec -> /healthz -> first job done on each
// connection, the cost a user pays before the service is usable.
type session struct {
	d     *daemon
	w     [nConns]*worker
	setup time.Duration
}

// openSession starts a daemon hosting specs, and warms each connection
// with warmJobs runs of warm. On the traced run the workers record spans.
func openSession(ctx context.Context, bin string, specs []string, seed int64, traced bool,
	warm func(ctx context.Context, w *worker, i int) error) (*session, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, bin, specs)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}
	for i := range s.w {
		var rec *recorder
		if traced {
			rec = newRecorder(i, t0, 1<<16)
		}
		c := newConn(rec)
		cli := griddclient.New(d.url, 1)
		cli.HTTP = c.hc
		s.w[i] = &worker{id: i, c: c, cli: cli, rt: core.NewReal(seed + int64(i) + 1), rec: rec}
		if err := warm(ctx, s.w[i], 0); err != nil {
			s.abort()
			return nil, fmt.Errorf("first job on connection %d: %w", i, err)
		}
	}
	s.setup = time.Since(t0)
	var wg sync.WaitGroup
	errs := make([]error, nConns)
	for _, w := range s.w {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 1; i < warmJobs; i++ {
				if err := warm(ctx, w, i); err != nil {
					errs[w.id] = fmt.Errorf("warm-up job %d on connection %d: %w", i, w.id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.abort()
			return nil, err
		}
	}
	for _, w := range s.w {
		if w.rec != nil { // warm-up spans are not part of the trace
			w.rec.spans = w.rec.spans[:0]
		}
	}
	return s, nil
}

func (s *session) abort() {
	for _, w := range s.w {
		if w != nil {
			w.c.close()
		}
	}
	s.d.kill()
}

// close drains the daemon and closes the sockets.
func (s *session) close() (drain time.Duration, err error) {
	for _, w := range s.w {
		w.c.close()
	}
	return s.d.stop()
}

// recorders lists the workers' span recorders (traced run only).
func (s *session) recorders() []*recorder {
	var out []*recorder
	for _, w := range s.w {
		if w.rec != nil {
			out = append(out, w.rec)
		}
	}
	return out
}

// spans pools the workers' spans.
func (s *session) spans() []span {
	var all []span
	for _, r := range s.recorders() {
		// Parent indexes are per recorder: shift them as the slices join.
		off := int32(len(all))
		for _, sp := range r.spans {
			if sp.Parent >= 0 {
				sp.Parent += off
			}
			all = append(all, sp)
		}
	}
	return all
}

// cpuMeter reads daemon and own CPU time at the edges of a phase.
type cpuMeter struct {
	pid          int
	daemon, self time.Duration
}

func startCPU(pid int) (cpuMeter, error) {
	d, err := procCPU(pid)
	return cpuMeter{pid: pid, daemon: d, self: selfCPU()}, err
}

// stop returns the CPU spent since start by the daemon and by this
// process.
func (m cpuMeter) stop() (daemon, self time.Duration, err error) {
	d, err := procCPU(m.pid)
	return d - m.daemon, selfCPU() - m.self, err
}

// loopStats is what one open-loop phase measured. lat and late are
// indexed by job; a failed job has lat < 0 and its error counted.
type loopStats struct {
	lat, late  []float64 // ms
	failed     int64
	firstErr   error
	backlogMax int64
}

// completed returns the latencies of the jobs that succeeded, ascending.
func (ls *loopStats) completed() []float64 {
	out := make([]float64, 0, len(ls.lat))
	for _, l := range ls.lat {
		if l >= 0 {
			out = append(out, l)
		}
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// openLoop sends job i at due[i], whatever became of job i-1: the next
// due job goes to whichever worker is free, and latency runs from the
// due time, so time spent queued behind a slow job is counted. The
// schedule and the sample slices exist before the clock starts.
func openLoop(ctx context.Context, ws []*worker, due []time.Duration,
	job func(ctx context.Context, w *worker, i int) error) *loopStats {
	n := len(due)
	ls := &loopStats{lat: make([]float64, n), late: make([]float64, n)}
	var next, failed, backlog atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				now := time.Since(start)
				if wait := due[i] - now; wait > 0 {
					time.Sleep(wait)
					now = time.Since(start)
				}
				// Jobs already due that no worker has taken yet.
				waiting := int64(sort.Search(n, func(k int) bool { return due[k] > now }) - i - 1)
				for {
					old := backlog.Load()
					if waiting <= old || backlog.CompareAndSwap(old, waiting) {
						break
					}
				}
				ls.late[i] = ms(now - due[i])
				if w.rec != nil {
					w.rec.job = int32(i)
				}
				root := w.rec.begin("job")
				err := job(ctx, w, i)
				w.rec.end(root)
				if err != nil {
					ls.lat[i] = -1
					failed.Add(1)
					errOnce.Do(func() { ls.firstErr = fmt.Errorf("job %d: %w", i, err) })
					continue
				}
				ls.lat[i] = ms(time.Since(start) - due[i])
			}
		}(w)
	}
	wg.Wait()
	ls.failed = failed.Load()
	ls.backlogMax = backlog.Load()
	return ls
}

// closedLoop runs job back to back on every worker for d and returns
// jobs completed per second: the saturation proxy, printed as an
// ungated diagnostic because it moves 20 % between runs on this host.
func closedLoop(ctx context.Context, ws []*worker, d time.Duration,
	job func(ctx context.Context, w *worker, i int) error) (perSec float64, err error) {
	var done atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				if e := job(ctx, w, i); e != nil {
					errOnce.Do(func() { err = e })
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds(), err
}
