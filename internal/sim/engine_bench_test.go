package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineStep measures one scheduling step with a deep run
// queue: 500 runnable processes all yielding at the same virtual
// instant, the regime where an O(n) run-queue pop turns every step
// into a 500-pointer shift. One op is one process resumption.
func BenchmarkEngineStep(b *testing.B) {
	const procs = 500
	e := New(1)
	e.MaxEvents = int64(b.N)*4 + int64(procs)*8 + 4096
	perProc := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < perProc; j++ {
				p.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedule measures the cost of scheduling one timer that
// later fires, the dominant allocation site of the engine: every
// Sleep, timeout, sampling tick, and housekeeping beat mints one.
func BenchmarkSchedule(b *testing.B) {
	e := New(1)
	e.MaxEvents = int64(b.N)*2 + 1024
	fn := func() {}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(i)*time.Nanosecond, fn)
		if e.TimerHeapLen() >= 1024 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// popClient is one client of BenchmarkTimerPopulation; pop is what the
// population shares.
type popClient struct{ pop *timerPop }

type timerPop struct {
	b    *testing.B
	e    *Engine
	left int // fires still to time
}

// think is a client's 5–15 s of virtual idle time.
func (s *timerPop) think() time.Duration {
	return 5*time.Second + time.Duration(s.e.Rand().Int63n(int64(10*time.Second)))
}

// popFire is the population's shared callback: count the fire and
// re-arm after a think, until the benchmark has had its b.N fires.
func popFire(arg any) {
	s := arg.(*popClient).pop
	if s.left--; s.left < 0 {
		return
	}
	if s.left == 0 {
		s.b.StopTimer() // the rest of the population drains untimed
	}
	s.e.ScheduleArg(s.think(), popFire, arg)
}

// BenchmarkTimerPopulation is the scale figure's traffic in process:
// 100 000 ScheduleArg clients, each re-arming itself after a 5–15 s
// think, so the wheel holds a population that leaves cache and every
// timer is filed a level up and cascades down before it fires. One op
// is one fired timer.
func BenchmarkTimerPopulation(b *testing.B) {
	const clients = 100_000
	e := New(1)
	e.MaxEvents = int64(b.N) + 2*clients + 1024
	s := &timerPop{b: b, e: e, left: b.N}
	cs := make([]popClient, clients)
	for i := range cs {
		cs[i].pop = s
		e.ScheduleArg(s.think(), popFire, &cs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// nearBench is BenchmarkNearHeap's state: its 64 timers and the fires
// still to time.
type nearBench struct {
	e     *Engine
	tms   [64]nearTimer
	fired int
	n     int
}

// nearTimer is one of BenchmarkNearHeap's timers: its slot in the state
// and the handle of its current tenure.
type nearTimer struct {
	s  *nearBench
	i  int
	tm Timer
}

// arm schedules timer i at most a microsecond out, well inside the
// ~1 ms tick the clock is in, so it files straight into the near heap.
func (s *nearBench) arm(i int) {
	t := &s.tms[i]
	t.tm = s.e.ScheduleArg(time.Duration(s.e.Rand().Int63n(1000)), nearFire, t)
}

// nearFire re-arms the timer that fired, and on every fourth fire
// cancels another pending timer and re-arms it too, so the heap is
// popped, pushed and cut from the middle.
func nearFire(arg any) {
	t := arg.(*nearTimer)
	s := t.s
	if s.fired++; s.fired > s.n {
		return
	}
	s.arm(t.i)
	if s.fired%4 == 0 {
		j := (t.i + 1 + s.e.Rand().Intn(len(s.tms)-1)) % len(s.tms)
		s.tms[j].tm.Cancel()
		s.arm(j)
	}
}

// BenchmarkNearHeap measures the near heap alone: 64 timers due inside
// one tick, each popped and re-armed as it fires, with every fourth
// fire also cancelling one of the others. One op is one fired timer.
func BenchmarkNearHeap(b *testing.B) {
	e := New(1)
	e.MaxEvents = 2*int64(b.N) + 1024
	s := &nearBench{e: e, n: b.N}
	e.Schedule(0, func() {
		for i := range s.tms {
			s.tms[i] = nearTimer{s: s, i: i}
			s.arm(i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleCancel measures the WithTimeout pattern that
// dominates real workloads: schedule a guard timer, cancel it almost
// immediately because the guarded work finished first. Without eager
// removal on Cancel every op leaves a dead entry in the queue until its
// distant deadline; without a free list every op allocates.
func BenchmarkScheduleCancel(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := e.Schedule(time.Hour, fn)
		t.Cancel()
	}
	b.StopTimer()
	b.ReportMetric(float64(e.TimerHeapLen()), "pending-len")
}

// BenchmarkSleepCancelCycle measures the full schedule-then-cancel
// round trip through a process: a Sleep raced against a context whose
// deadline never wins, i.e. core.Try's per-attempt timeout pattern.
func BenchmarkSleepCancelCycle(b *testing.B) {
	e := New(1)
	e.MaxEvents = int64(b.N)*16 + 4096
	n := b.N
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			ctx, cancel := p.WithTimeout(e.Context(), time.Hour)
			_ = p.Sleep(ctx, time.Millisecond)
			cancel()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFreshEngineSpawn measures what every ftsh script pays the
// engine before the script does anything: a fresh engine, one process
// that returns at once, and the Run that switches into it.
func BenchmarkFreshEngineSpawn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		e.Spawn("one", func(p *Proc) {})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepProcess is BenchmarkFreshEngineSpawn with a process
// 800 Go frames deep, as recursion.ftsh's 200 call levels of four
// interpreter frames each are: what the stack's growth costs a process
// whose coroutine starts small, and what a pooled, already grown one
// saves.
func BenchmarkDeepProcess(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		e.Spawn("deep", func(p *Proc) {
			if descend(800) != 800 {
				b.Error("descend lost frames")
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// descend recurses n frames of about an interpreter frame's size each
// (execCommand keeps 136 bytes of locals, execStmt 80) and returns n.
//
//go:noinline
func descend(n int) int {
	var frame [96]byte
	frame[n%len(frame)] = 1
	if n == 0 {
		return 0
	}
	return descend(n-1) + int(frame[n%len(frame)])
}
