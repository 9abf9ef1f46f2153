package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/lease"
	"repro/internal/sim"
)

// timingLine matches gridbench's per-cell report of the scale figure.
var timingLine = regexp.MustCompile(`(?m)^# timing: n=(\d+) wall=\S+ events/s=(\d+)$`)

// simScaleTraced gives the sim layer's numbers behind sim-scale:
// events per second overall and per cell (the three populations are
// cache-resident, borderline and not), the wheel's own counters from
// the flight recorder, and the timer stages.
func simScaleTraced(e *env, o *outcome, check *outputCheck) error {
	var overall []float64
	cells := map[int][]float64{}
	start := time.Now()
	for len(overall) < 2 || time.Since(start) < e.dur(0.5) {
		r, err := runCLI(e, scaleInv)
		if err != nil {
			return err
		}
		o.attempted++
		check.check(o, scaleInv, r)
		events, err := tableColumn(r.out, "events")
		if err != nil {
			return err
		}
		overall = append(overall, events/r.wall.Seconds())
		for i, m := range timingLine.FindAllStringSubmatch(r.raw, -1) {
			v, _ := strconv.ParseFloat(m[2], 64)
			cells[i] = append(cells[i], v)
		}
	}
	o.set("sim.events_per_s", median(overall))
	for i, name := range []string{"small", "mid", "large"} {
		if len(cells[i]) > 0 {
			o.set("sim.events_per_s."+name, median(cells[i]))
		}
	}

	// The wheel's counters, from the flight recorder's Prometheus dump.
	// A series that a later change renames reads absent, not failed.
	prom := filepath.Join(e.tmp, "scale.prom")
	if _, err := runCLI(e, scaleInv, "-metrics", prom, "-metrics-format", "prom"); err != nil {
		return err
	}
	series, err := readProm(prom)
	if err != nil {
		return err
	}
	for metric, name := range map[string]string{
		"sim.wheel_cascades":     "grid_engine_wheel_cascades_total",
		"sim.max_slot_occupancy": "grid_engine_wheel_slot_max",
		"sim.timer_overflow_len": "grid_engine_wheel_overflow",
	} {
		vs, ok := series[name]
		if !ok {
			o.note("%s: absent (no series %s)", metric, name)
			continue
		}
		var agg float64
		for _, v := range vs {
			if metric == "sim.wheel_cascades" {
				agg += v
			} else {
				agg = max(agg, v)
			}
		}
		o.set(metric, agg)
	}
	return stageTimers(o)
}

// readProm reads a Prometheus text dump into series name -> samples.
func readProm(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, "{")
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				out[name] = append(out[name], v)
			}
		}
	}
	return out, sc.Err()
}

// simFiguresTraced times each bundle member on its own (the scenario
// packages have no smaller public surface than their figure), what
// turning the tracer and the flight recorder on costs, and the proc
// and lease stages.
func simFiguresTraced(e *env, o *outcome, check *outputCheck) error {
	member := map[string][]float64{}
	rng := rand.New(rand.NewSource(e.seed))
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < e.dur(0.3); n++ {
		sums := map[string]float64{}
		for _, inv := range bundleOrder(rng) {
			r, err := runCLI(e, inv)
			if err != nil {
				return err
			}
			check.check(o, inv, r)
			sums[inv.layer] += r.wall.Seconds()
		}
		o.attempted++
		for layer, s := range sums {
			member[layer] = append(member[layer], s)
		}
	}
	for layer, xs := range member {
		o.set(layer, median(xs))
	}

	// The first member (fig 1) carries the most trace events of the
	// bundle; fig 7, which the tracer was written for, is 5 ms of which
	// most is exec. The last lease member (fig la) samples the recorder.
	fig1, figla := bundle[0], bundle[min(3, len(bundle)-1)]
	traceOut := filepath.Join(e.tmp, "fig1.trace.jsonl")
	var plain, traced, obsPlain, obsOn, evRate []float64
	for i := 0; i < 3; i++ {
		p, err := runCLI(e, fig1)
		if err != nil {
			return err
		}
		t, err := runCLI(e, fig1, "-trace", traceOut)
		if err != nil {
			return err
		}
		plain, traced = append(plain, p.wall.Seconds()), append(traced, t.wall.Seconds())
		lines, err := countLines(traceOut)
		if err != nil {
			return err
		}
		evRate = append(evRate, float64(lines)/t.wall.Seconds())

		p, err = runCLI(e, figla)
		if err != nil {
			return err
		}
		t, err = runCLI(e, figla, "-metrics", filepath.Join(e.tmp, "figla.metrics.jsonl"))
		if err != nil {
			return err
		}
		obsPlain, obsOn = append(obsPlain, p.wall.Seconds()), append(obsOn, t.wall.Seconds())
	}
	o.set("trace.overhead_frac", median(traced)/median(plain)-1)
	o.set("trace.events_per_s", median(evRate))
	o.set("obs.overhead_frac", median(obsOn)/median(obsPlain)-1)

	stageProcs(o)
	return stageLease(o)
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

// The sim and lease stages use the packages' public API only, on one
// engine each, a fixed number of iterations, timed with time.Now and
// counted with MemStats deltas.

var (
	stageTimersN = 200000
	stageProcN   = 50000
)

// perOp runs fn and returns nanoseconds and allocations per iteration.
func perOp(n int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// stageTimers: what sim-scale is made of.
func stageTimers(o *outcome) error {
	var fired int
	bump := func(any) { fired++ }
	ns, _ := perOp(stageTimersN, func() {
		e := sim.New(1)
		for i := 0; i < stageTimersN; i++ {
			// Delays spread over a virtual minute, as the scale figure's are.
			e.ScheduleArg(time.Duration(i%60000)*time.Millisecond, bump, nil)
		}
		if err := e.Run(); err != nil {
			panic(err) // no procs: Run cannot fail
		}
	})
	if fired != stageTimersN {
		return fmt.Errorf("stage timers: %d of %d fired", fired, stageTimersN)
	}
	o.set("sim.schedule_ns", ns)

	ns, _ = perOp(stageTimersN, func() {
		e := sim.New(1)
		for i := 0; i < stageTimersN; i++ {
			e.Schedule(time.Duration(i%60000)*time.Millisecond, func() { fired++ }).Cancel()
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
	})
	if fired != stageTimersN {
		return fmt.Errorf("stage timers: a cancelled timer fired")
	}
	o.set("sim.schedule_cancel_ns", ns)
	return nil
}

// stageProcs: what sim-figures is made of on the engine's side.
func stageProcs(o *outcome) {
	run := func(e *sim.Engine) {
		if err := e.Run(); err != nil {
			panic(err) // the stage's procs all return
		}
	}
	ns, allocs := perOp(stageProcN, func() {
		e := sim.New(1)
		e.Spawn("stepper", func(p *sim.Proc) {
			for i := 0; i < stageProcN; i++ {
				p.SleepFor(time.Millisecond)
			}
		})
		run(e)
	})
	o.set("sim.step_ns", ns)
	o.set("sim.allocs_per_step", allocs)

	ns, _ = perOp(stageProcN, func() {
		e := sim.New(1)
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < stageProcN; i++ {
				ctx, cancel := p.WithTimeout(e.Context(), time.Millisecond)
				_ = p.Sleep(ctx, time.Hour) // ends by the deadline: that is the stage
				cancel()
			}
		})
		run(e)
	})
	o.set("sim.sleep_cancel_ns", ns)

	ns, _ = perOp(2*stageProcN, func() {
		e := sim.New(1)
		for _, name := range []string{"ping", "pong"} {
			e.Spawn(name, func(p *sim.Proc) {
				for i := 0; i < stageProcN; i++ {
					p.Yield()
				}
			})
		}
		run(e)
	})
	o.set("sim.switch_ns", ns)

	ns, _ = perOp(stageProcN, func() {
		e := sim.New(1)
		for i := 0; i < stageProcN; i++ {
			e.Spawn("p", func(*sim.Proc) {})
		}
		run(e)
	})
	o.set("sim.spawn_ns", ns)
}

// stageLease: the lease manager and the admission book on the sim
// clock. Beside gridd.handler_* these are the before/after table for
// the day the two lease state machines become one.
func stageLease(o *outcome) error {
	n := stageProcN
	var stageErr error
	fail := func(err error) {
		if stageErr == nil && err != nil {
			stageErr = err
		}
	}
	ns, allocs := perOp(n, func() {
		e := sim.New(1)
		m := lease.New(e.RT(), "res", 4, 10*time.Second)
		e.Spawn("holder", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				l, err := m.Acquire(p, e.Context(), "holder", 1)
				if err != nil {
					fail(err)
					return
				}
				l.Release()
			}
		})
		fail(e.Run())
	})
	o.set("lease.acquire_release_ns", ns)
	o.set("lease.allocs_per_acquire", allocs)

	procs, each := 64, n/64
	ns, _ = perOp(procs*each, func() {
		e := sim.New(1)
		m := lease.New(e.RT(), "res", 4, 10*time.Second)
		for i := 0; i < procs; i++ {
			name := "p" + strconv.Itoa(i)
			e.Spawn(name, func(p *sim.Proc) {
				for k := 0; k < each; k++ {
					l, err := m.Acquire(p, e.Context(), name, 1)
					if err != nil {
						fail(err)
						return
					}
					p.SleepFor(time.Millisecond)
					l.Release()
				}
			})
		}
		fail(e.Run())
	})
	o.set("lease.fifo_handoff_ns", ns)

	for _, depth := range []int{0, stageDeepBook} {
		var ns float64
		e := sim.New(1)
		b := lease.NewBook(e.RT(), "book", 1<<20)
		e.Spawn("booker", func(p *sim.Proc) {
			for i := 0; i < depth; i++ {
				if _, err := b.Reserve(p, "deep", time.Hour, time.Hour, 1); err != nil {
					fail(err)
					return
				}
			}
			ns, _ = perOp(n/10, func() {
				for i := 0; i < n/10; i++ {
					r, err := b.Reserve(p, "booker", time.Hour, time.Hour, 1)
					if err != nil {
						fail(err)
						return
					}
					r.Cancel()
				}
			})
		})
		// The deep bookings are never claimed; their lapse timers run out
		// harmlessly as the engine drains.
		fail(e.Run())
		o.set(fmt.Sprintf("lease.book_reserve_ns.d%d", depth), ns)
	}
	return stageErr
}
