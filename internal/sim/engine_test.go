package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := New(1)
	var woke time.Duration
	e.Spawn("sleeper", func(p *Proc) {
		p.SleepFor(5 * time.Second)
		woke = p.Elapsed()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if e.Elapsed() != 5*time.Second {
		t.Fatalf("engine at %v, want 5s", e.Elapsed())
	}
}

func TestSleepOrderingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := New(42)
		var order []string
		for _, spec := range []struct {
			name string
			d    time.Duration
		}{{"c", 3 * time.Second}, {"a", 1 * time.Second}, {"b", 2 * time.Second}, {"a2", 1 * time.Second}} {
			spec := spec
			e.Spawn(spec.name, func(p *Proc) {
				p.SleepFor(spec.d)
				order = append(order, spec.name)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	want := []string{"a", "a2", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("nondeterministic order: %v vs %v", first, second)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := New(1)
	var trace []int
	e.Spawn("x", func(p *Proc) {
		trace = append(trace, 1)
		p.SleepFor(0)
		trace = append(trace, 3)
	})
	e.Spawn("y", func(p *Proc) {
		trace = append(trace, 2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSleepCanceledByTimeout(t *testing.T) {
	e := New(1)
	var err error
	var at time.Duration
	e.Spawn("x", func(p *Proc) {
		ctx, cancel := p.WithTimeout(e.Context(), 2*time.Second)
		defer cancel()
		err = p.Sleep(ctx, time.Hour)
		at = p.Elapsed()
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if at != 2*time.Second {
		t.Fatalf("woke at %v, want 2s", at)
	}
}

func TestNestedTimeoutsInnerWinsWhenShorter(t *testing.T) {
	e := New(1)
	var inner, outer error
	e.Spawn("x", func(p *Proc) {
		octx, ocancel := p.WithTimeout(e.Context(), 10*time.Second)
		defer ocancel()
		ictx, icancel := p.WithTimeout(octx, time.Second)
		defer icancel()
		inner = p.Sleep(ictx, time.Hour)
		outer = octx.Err()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(inner, context.DeadlineExceeded) {
		t.Fatalf("inner err = %v", inner)
	}
	if outer != nil {
		t.Fatalf("outer canceled too early: %v", outer)
	}
}

func TestOuterTimeoutCancelsInnerWait(t *testing.T) {
	e := New(1)
	var err error
	var at time.Duration
	e.Spawn("x", func(p *Proc) {
		octx, ocancel := p.WithTimeout(e.Context(), time.Second)
		defer ocancel()
		ictx, icancel := p.WithTimeout(octx, time.Hour)
		defer icancel()
		err = p.Sleep(ictx, 30*time.Minute)
		at = p.Elapsed()
	})
	if e2 := e.Run(); e2 != nil {
		t.Fatal(e2)
	}
	if !errors.Is(err, context.DeadlineExceeded) || at != time.Second {
		t.Fatalf("err=%v at=%v, want DeadlineExceeded at 1s", err, at)
	}
}

func TestExplicitCancelWakesHang(t *testing.T) {
	e := New(1)
	ctx, cancel := e.WithCancel(e.Context())
	var err error
	e.Spawn("hanger", func(p *Proc) {
		err = p.Hang(ctx)
	})
	e.Schedule(7*time.Second, func() { cancel() })
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if e.Elapsed() != 7*time.Second {
		t.Fatalf("elapsed %v, want 7s", e.Elapsed())
	}
}

func TestResourceSerializesClients(t *testing.T) {
	e := New(1)
	r := lease.New(e.RT(), "server", 1, 0)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		e.Spawn("client", func(p *Proc) {
			if err := r.Take(p, e.Context(), 1); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			p.SleepFor(10 * time.Second)
			r.Put(1)
			finish = append(finish, p.Elapsed())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceAcquireCanceled(t *testing.T) {
	e := New(1)
	r := lease.New(e.RT(), "server", 1, 0)
	e.Spawn("holder", func(p *Proc) {
		if err := r.Take(p, e.Context(), 1); err != nil {
			t.Errorf("holder acquire: %v", err)
		}
		p.SleepFor(time.Hour)
		r.Put(1)
	})
	var waitErr error
	e.Spawn("waiter", func(p *Proc) {
		ctx, cancel := p.WithTimeout(e.Context(), time.Minute)
		defer cancel()
		waitErr = r.Take(p, ctx, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(waitErr, context.DeadlineExceeded) {
		t.Fatalf("waitErr = %v", waitErr)
	}
	if r.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", r.Timeouts)
	}
}

func TestResourceAbandonedWaiterNotGranted(t *testing.T) {
	e := New(1)
	r := lease.New(e.RT(), "s", 1, 0)
	var got []string
	e.Spawn("holder", func(p *Proc) {
		_ = r.Take(p, e.Context(), 1)
		p.SleepFor(10 * time.Second)
		r.Put(1)
	})
	e.Spawn("quitter", func(p *Proc) {
		ctx, cancel := p.WithTimeout(e.Context(), 2*time.Second)
		defer cancel()
		if err := r.Take(p, ctx, 1); err == nil {
			got = append(got, "quitter")
			r.Put(1)
		}
	})
	e.Spawn("patient", func(p *Proc) {
		p.SleepFor(time.Second)
		if err := r.Take(p, e.Context(), 1); err == nil {
			got = append(got, "patient")
			r.Put(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "patient" {
		t.Fatalf("got = %v, want [patient]", got)
	}
}

func TestParallelJoinsAllBranches(t *testing.T) {
	e := New(1)
	var errs []error
	var joined time.Duration
	e.Spawn("parent", func(p *Proc) {
		boom := errors.New("boom")
		errs = p.Parallel(e.Context(), 0, []func(context.Context, core.Runtime) error{
			func(ctx context.Context, rt core.Runtime) error { return nil },
			func(ctx context.Context, rt core.Runtime) error { return boom },
		})
		joined = p.Elapsed()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("errs = %v", errs)
	}
	if joined != 0 {
		t.Fatalf("joined at %v, want 0 (branches were instantaneous)", joined)
	}
}

func TestParallelBranchesRunConcurrently(t *testing.T) {
	e := New(1)
	var joined time.Duration
	sleepBranch := func(d time.Duration) func(context.Context, core.Runtime) error {
		return func(ctx context.Context, rt core.Runtime) error {
			return rt.Sleep(ctx, d)
		}
	}
	e.Spawn("parent", func(p *Proc) {
		errs := p.Parallel(e.Context(), 0, []func(context.Context, core.Runtime) error{
			sleepBranch(5 * time.Second),
			sleepBranch(3 * time.Second),
		})
		for _, err := range errs {
			if err != nil {
				t.Errorf("branch err: %v", err)
			}
		}
		joined = p.Elapsed()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 5*time.Second {
		t.Fatalf("joined at %v, want 5s (max of branches, not sum)", joined)
	}
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestSchedulePeriodicSampling(t *testing.T) {
	e := New(1)
	var samples []time.Duration
	var tick func()
	tick = func() {
		samples = append(samples, e.Elapsed())
		if e.Elapsed() < 5*time.Second {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(time.Second, tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("samples = %v, want 5 entries", samples)
	}
}

func TestRunDetectsLivelock(t *testing.T) {
	e := New(1)
	e.MaxEvents = 1000
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Yield()
		}
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected livelock error")
	}
}

// TestRandLazySameDraws pins the lazily made source to the eager one it
// replaced: no source until the first draw, and then, whichever of the
// three accessors draws, the draws of rand.New(rand.NewSource(seed)).
func TestRandLazySameDraws(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		e := New(seed)
		e.Spawn("idle", func(p *Proc) { p.SleepFor(time.Second) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.rng != nil {
			t.Fatalf("seed %d: a run that never drew made a random source", seed)
		}
		eager := rand.New(rand.NewSource(seed))
		e.Spawn("draws", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				var got float64
				switch i % 3 {
				case 0:
					got = p.Rand()
				case 1:
					got = e.RT().Rand()
				default:
					got = e.Rand().Float64()
				}
				if want := eager.Float64(); got != want {
					t.Errorf("seed %d: draw %d = %v, eager source drew %v", seed, i, got, want)
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeterministicRand(t *testing.T) {
	seq := func(seed int64) []float64 {
		e := New(seed)
		var out []float64
		e.Spawn("r", func(p *Proc) {
			for i := 0; i < 5; i++ {
				out = append(out, p.Rand())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestNowTracksEpoch(t *testing.T) {
	e := New(1)
	e.Spawn("x", func(p *Proc) {
		p.SleepFor(90 * time.Second)
		if got := p.Now(); !got.Equal(Epoch.Add(90 * time.Second)) {
			t.Errorf("Now = %v", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of sleep durations, all processes wake exactly at
// their requested virtual times and the engine finishes at the maximum.
func TestQuickSleepSchedule(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		e := New(3)
		woke := make([]time.Duration, len(raw))
		var maxD time.Duration
		for i, r := range raw {
			i := i
			d := time.Duration(r) * time.Millisecond
			if d > maxD {
				maxD = d
			}
			e.Spawn("p", func(p *Proc) {
				p.SleepFor(d)
				woke[i] = p.Elapsed()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i, r := range raw {
			if woke[i] != time.Duration(r)*time.Millisecond {
				return false
			}
		}
		return e.Elapsed() == maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO resource with capacity c and n identical jobs of
// duration d finishes at ceil(n/c)*d.
func TestQuickResourcePipelining(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%20) + 1
		c := int(cRaw%5) + 1
		const d = 3 * time.Second
		e := New(5)
		r := lease.New(e.RT(), "r", int64(c), 0)
		for i := 0; i < n; i++ {
			e.Spawn("job", func(p *Proc) {
				if err := r.Take(p, e.Context(), 1); err != nil {
					return
				}
				p.SleepFor(d)
				r.Put(1)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		batches := (n + c - 1) / c
		return e.Elapsed() == time.Duration(batches)*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelLimitBoundsConcurrency(t *testing.T) {
	e := New(1)
	var joined time.Duration
	inFlight, maxInFlight := 0, 0
	branch := func(ctx context.Context, rt core.Runtime) error {
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		err := rt.Sleep(ctx, 10*time.Second)
		inFlight--
		return err
	}
	e.Spawn("parent", func(p *Proc) {
		fns := make([]func(context.Context, core.Runtime) error, 6)
		for i := range fns {
			fns[i] = branch
		}
		errs := p.Parallel(e.Context(), 2, fns)
		for _, err := range errs {
			if err != nil {
				t.Errorf("branch: %v", err)
			}
		}
		joined = p.Elapsed()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 2 {
		t.Fatalf("maxInFlight = %d, want 2", maxInFlight)
	}
	// 6 branches, 2 at a time, 10s each => 30s.
	if joined != 30*time.Second {
		t.Fatalf("joined at %v, want 30s", joined)
	}
}

func TestParallelLimitLargerThanBranches(t *testing.T) {
	e := New(1)
	e.Spawn("parent", func(p *Proc) {
		errs := p.Parallel(e.Context(), 99, []func(context.Context, core.Runtime) error{
			func(ctx context.Context, rt core.Runtime) error { return rt.Sleep(ctx, time.Second) },
			func(ctx context.Context, rt core.Runtime) error { return rt.Sleep(ctx, time.Second) },
		})
		for _, err := range errs {
			if err != nil {
				t.Errorf("branch: %v", err)
			}
		}
		if p.Elapsed() != time.Second {
			t.Errorf("elapsed = %v, want 1s (fully parallel)", p.Elapsed())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLargePopulationDeterminism(t *testing.T) {
	// A thousand processes with interleaved sleeps, resource contention,
	// and timeouts must produce the identical event count and final
	// clock on every run with the same seed.
	run := func() (int64, time.Duration) {
		e := New(99)
		r := lease.New(e.RT(), "shared", 7, 0)
		ctx, cancel := e.WithTimeout(e.Context(), 5*time.Minute)
		defer cancel()
		for i := 0; i < 1000; i++ {
			e.Spawn("p", func(p *Proc) {
				for ctx.Err() == nil {
					d := time.Duration(1+int(p.Rand()*2000)) * time.Millisecond
					if p.Sleep(ctx, d) != nil {
						return
					}
					actx, acancel := p.WithTimeout(ctx, 10*time.Second)
					if r.Take(p, actx, 1) == nil {
						_ = p.Sleep(ctx, 500*time.Millisecond)
						r.Put(1)
					}
					acancel()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Events(), e.Elapsed()
	}
	ev1, t1 := run()
	ev2, t2 := run()
	if ev1 != ev2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", ev1, t1, ev2, t2)
	}
	if ev1 < 100000 {
		t.Fatalf("events = %d, stress too small", ev1)
	}
}

// TestRunQueueMaskWraparound drives pushRun/popRun directly through the
// regime the mask indexing must survive: a head deep into the ring,
// pushes wrapping past the end, and a growth while wrapped (the copy
// must unroll the wrap). Pop order must stay FIFO throughout.
func TestRunQueueMaskWraparound(t *testing.T) {
	e := New(1)
	var want []*Proc
	push := func(p *Proc) {
		e.pushRun(p)
		want = append(want, p)
	}
	popCheck := func() {
		p := e.popRun()
		if p != want[0] {
			t.Fatalf("pop order broken: got proc id %d, want id %d", p.id, want[0].id)
		}
		want = want[1:]
	}
	// Fill the initial 16-slot ring, drain most of it so the head sits
	// near the end, then push across the wrap boundary.
	for i := 0; i < 16; i++ {
		push(e.allocProc())
	}
	for i := 0; i < 13; i++ {
		popCheck()
	}
	for i := 0; i < 12; i++ {
		push(e.allocProc()) // tail wraps to the ring's front
	}
	if head := e.rqHead; head != 13 {
		t.Fatalf("head = %d, want 13 (setup drifted)", head)
	}
	// Grow while wrapped: the 16th live entry forces a 32-slot ring and
	// the copy must stitch [head:16) + [0:tail) back together in order.
	for i := 0; i < 20; i++ {
		push(e.allocProc())
	}
	if len(e.runq) != 64 {
		t.Fatalf("ring len = %d, want 64 after growth", len(e.runq))
	}
	for len(want) > 0 {
		popCheck()
	}
	if e.rqLen != 0 {
		t.Fatalf("rqLen = %d after full drain", e.rqLen)
	}
}

// TestProcArenaRecycling pins the process arena: records of exited
// processes are reused (with their cached wakeup closures; each tenure
// gets a shell from the pool), and the dense id-indexed blocks stay
// addressable.
func TestProcArenaRecycling(t *testing.T) {
	e := New(1)
	var firstID int32 = -1
	e.Spawn("a", func(p *Proc) { firstID = p.id })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if firstID < 0 {
		t.Fatal("proc did not run")
	}
	rec := e.procByID(firstID)
	if rec.done || rec.name != "" {
		t.Fatalf("record %d not reset after recycle: done=%v name=%q", firstID, rec.done, rec.name)
	}
	// The very next spawn must reuse the freed record, not mint block 2.
	var secondID int32 = -2
	e.Spawn("b", func(p *Proc) { secondID = p.id })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if secondID != firstID {
		t.Fatalf("spawn after exit used record %d, want recycled %d", secondID, firstID)
	}
	if len(e.procBlocks) != 1 {
		t.Fatalf("minted %d blocks for serial spawns, want 1", len(e.procBlocks))
	}
	// Churn far past one block: serial spawn/exit cycles must never
	// mint a second block.
	for i := 0; i < 3*procBlock; i++ {
		e.Spawn("churn", func(p *Proc) {})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.procBlocks) != 1 {
		t.Fatalf("churn minted %d blocks, want 1", len(e.procBlocks))
	}
	// Processes alive together spill from the small first block into
	// full-sized ones: ids stay dense and ascending in spawn order, and
	// procByID finds every record on either side of each boundary.
	n := procBlock0 + procBlock + 3
	var ids []int32
	for i := 0; i < n; i++ {
		e.Spawn("wide", func(p *Proc) {
			ids = append(ids, p.id)
			p.SleepFor(time.Second)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.procBlocks) != 3 || len(e.procBlocks[0]) != procBlock0 || len(e.procBlocks[1]) != procBlock {
		t.Fatalf("%d blocks (first of %d records) for %d live processes, want %d, %d, %d", len(e.procBlocks), len(e.procBlocks[0]), n, procBlock0, procBlock, procBlock)
	}
	for i, id := range ids {
		if id != int32(i) {
			t.Fatalf("process %d of the wide spawn got id %d", i, id)
		}
		if rec := e.procByID(id); rec.id != id {
			t.Fatalf("procByID(%d) returned record %d", id, rec.id)
		}
	}
}

// TestFreshEngineFootprint bounds what an engine costs that is asked
// for one process and one timer — what every ftsh script and most unit
// tests build. It was 97.6 KB when the first arena blocks were sized
// for a million-client cell, 22 440 B while New seeded a random source
// (5.4 KB) whether or not anything drew from it, and 17 016 B while
// every process made a coroutine of its own.
//
// TotalAlloc is process-wide, so one reading can include whatever else
// the runtime allocated meanwhile; the least of five is the engine's.
// The first reading may also be the one that makes a shell.
func TestFreshEngineFootprint(t *testing.T) {
	var least uint64
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		e := New(1)
		e.Spawn("one", func(p *Proc) { p.SleepFor(time.Second) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	t.Logf("a fresh engine, one process and one sleep: %d bytes", least)
	if least > 17<<10 {
		t.Fatalf("a fresh engine, one process and one sleep allocated %d bytes: budget 17 KB", least)
	}
}

// runPanic runs e and returns the *ProcPanic its Run panicked with.
func runPanic(t *testing.T, e *Engine) (pp *ProcPanic) {
	t.Helper()
	defer func() {
		v := recover()
		var ok bool
		if pp, ok = v.(*ProcPanic); !ok {
			t.Fatalf("Run ended with %T (%v), want a *ProcPanic panic", v, v)
		}
	}()
	_ = e.Run()
	return nil
}

// explodeInProc exists so a frame with a recognisable name is on the
// process's stack when it panics.
func explodeInProc(m map[string]int) { m["boom"] = 1 }

// TestProcPanicSurfacesFromRun pins what a panic inside a process looks
// like to Run's caller: the coroutine switch re-raises it on this
// goroutine with the process's frames gone, so the engine wraps it with
// the process name and the stack taken before they went.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := New(1)
	e.Spawn("bystander", func(p *Proc) { p.SleepFor(time.Hour) })
	victim := e.Spawn("victim", func(p *Proc) {
		p.SleepFor(time.Second)
		explodeInProc(nil)
	})
	pp := runPanic(t, e)
	if pp.Proc != "victim" {
		t.Errorf("Proc = %q, want victim", pp.Proc)
	}
	if err, ok := pp.Value.(error); !ok || !strings.Contains(err.Error(), "nil map") {
		t.Errorf("Value = %v, want the nil-map runtime error", pp.Value)
	}
	if !bytes.Contains(pp.Stack, []byte("explodeInProc")) {
		t.Errorf("Stack lacks the panicking frame:\n%s", pp.Stack)
	}
	for _, want := range []string{`"victim"`, "nil map", "explodeInProc"} {
		if !strings.Contains(pp.Error(), want) {
			t.Errorf("Error() lacks %q:\n%s", want, pp.Error())
		}
	}
	if pp.String() != pp.Error() {
		t.Errorf("String() differs from Error():\n%s", pp.String())
	}

	// The panic ended the victim's shell, which never goes back to the
	// pool, and the goroutine that caught the panic is intact: a new
	// engine on it runs to completion on pooled and new shells, none of
	// them the dead one.
	dead := victim.sh
	if dead == nil {
		t.Fatal("the panicked process was recycled")
	}
	if _, pooled := idleShells(dead); pooled {
		t.Fatal("the panicked process's shell is in the pool")
	}
	e2 := New(1)
	ran := 0
	for i := 0; i < 2*shellPoolMax; i++ {
		e2.Spawn("after", func(p *Proc) {
			if p.sh == dead {
				t.Errorf("process %d runs on the shell that panicked", i)
			}
			p.SleepFor(time.Second)
			ran++
		})
	}
	if err := e2.Run(); err != nil || ran != 2*shellPoolMax || e2.Live() != 0 {
		t.Fatalf("engine after a caught ProcPanic: err=%v ran=%d live=%d", err, ran, e2.Live())
	}
}

// TestParkFromForeignProcPanics: a process that blocks on another
// process's handle would yield the wrong coroutine; park refuses, and
// the refusal unwinds through Run like any other process panic.
func TestParkFromForeignProcPanics(t *testing.T) {
	e := New(1)
	b := e.Spawn("B", func(p *Proc) { p.SleepFor(time.Hour) })
	e.Spawn("A", func(p *Proc) {
		p.SleepFor(time.Second) // let B park first
		b.SleepFor(time.Second)
	})
	pp := runPanic(t, e)
	if pp.Proc != "A" {
		t.Errorf("Proc = %q, want A (the caller)", pp.Proc)
	}
	if msg, _ := pp.Value.(string); msg != "sim: park of B from outside its own process" {
		t.Errorf("Value = %v, want the park guard naming B", pp.Value)
	}
	if !b.parked || b.done {
		t.Errorf("B disturbed by the refused park: parked=%v done=%v", b.parked, b.done)
	}
}

// drainShells stops every idle shell, so a test can count the shells
// and goroutines it makes itself.
func drainShells() {
	shellPool.Lock()
	idle := shellPool.idle
	shellPool.idle = nil
	shellPool.Unlock()
	for _, sh := range idle {
		sh.stop()
	}
}

// idleShells reports how many shells the pool holds, and whether sh is
// one of them.
func idleShells(sh *shell) (n int, pooled bool) {
	shellPool.Lock()
	defer shellPool.Unlock()
	for _, idle := range shellPool.idle {
		pooled = pooled || idle == sh
	}
	return len(shellPool.idle), pooled
}

// goroutines reads runtime.NumGoroutine once it holds still: a
// goroutine of an earlier test may still be on its way out.
func goroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestParkedAtQuiescenceKeepsShell pins a leak the engine has always
// had, so that fixing it flips this test on purpose: a process still
// parked when Run returns never returns itself, so its shell never goes
// back to the pool, and its goroutine outlives the engine, however many
// collections run after the engine is dropped.
func TestParkedAtQuiescenceKeepsShell(t *testing.T) {
	drainShells()
	base := goroutines()
	const engines = 20
	for i := 0; i < engines; i++ {
		e := New(int64(i))
		e.Spawn("hung", func(p *Proc) { _ = p.Hang(e.Context()) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if e.Live() != 1 {
			t.Fatalf("engine %d: %d live processes at quiescence, want the hung one", i, e.Live())
		}
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	if n, _ := idleShells(nil); n != 0 {
		t.Errorf("the pool gained %d shells from engines whose only process never returned", n)
	}
	if got := goroutines(); got != base+engines {
		t.Errorf("%d goroutines after dropping %d engines each with a hung process, want %d + %d", got, engines, base, engines)
	}
}

// TestGoexitInProcessUnwindsRun: runtime.Goexit in a process ends its
// shell's goroutine and then the goroutine that called Run, before Run
// returns; the shells left in the pool still run processes.
func TestGoexitInProcessUnwindsRun(t *testing.T) {
	warm := New(1)
	for i := 0; i < 4; i++ {
		warm.Spawn("warm", func(p *Proc) {})
	}
	if err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	var dead *shell
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e := New(1)
		dead = e.Spawn("quitter", func(p *Proc) {
			p.SleepFor(time.Second)
			runtime.Goexit()
		}).sh
		_ = e.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned after its process called runtime.Goexit")
	}
	n, pooled := idleShells(dead)
	if pooled {
		t.Fatal("the shell that exited is in the pool")
	}
	e := New(2)
	ran := 0
	for i := 0; i < n+2; i++ {
		e.Spawn("after", func(p *Proc) {
			p.SleepFor(time.Second)
			ran++
		})
	}
	if err := e.Run(); err != nil || ran != n+2 || e.Live() != 0 {
		t.Fatalf("engine after a Goexit: err=%v ran=%d of %d live=%d", err, ran, n+2, e.Live())
	}
}

// churnEngine runs a fresh engine whose processes spawn others as they
// go, and returns what happened when: a function of the seed alone,
// whichever shells ran it.
func churnEngine(seed int64) string {
	e := New(seed)
	var log strings.Builder
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprint("root", i), func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.SleepFor(time.Duration(1+p.Rand()*10) * time.Millisecond)
				e.Spawn(fmt.Sprint(p.Name(), ".", j), func(c *Proc) {
					c.Yield()
					fmt.Fprintf(&log, "%s@%v ", c.Name(), c.Elapsed())
				})
			}
		})
	}
	if err := e.Run(); err != nil {
		return err.Error()
	}
	fmt.Fprintf(&log, "events=%d", e.Events())
	return log.String()
}

// TestShellsAcrossEngines runs engines on 8 goroutines at once, all
// drawing shells from the one pool; under -race this must be silent,
// and every engine must log what a serial run logged.
func TestShellsAcrossEngines(t *testing.T) {
	const workers, engines = 8, 200
	want := make([]string, engines)
	for i := range want {
		want[i] = churnEngine(int64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < engines; i++ {
				if got := churnEngine(int64(i)); got != want[i] {
					t.Errorf("worker %d, engine %d:\n got %s\nwant %s", w, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShellPoolBound: once a thousand processes alive together have
// all returned, the pool keeps at most shellPoolMax of their shells
// and the rest are stopped, goroutines and all.
func TestShellPoolBound(t *testing.T) {
	drainShells()
	base := goroutines()
	e := New(1)
	for i := 0; i < 1000; i++ {
		e.Spawn("p", func(p *Proc) { p.SleepFor(time.Duration(i%7) * time.Second) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n, _ := idleShells(nil); n > shellPoolMax {
		t.Errorf("the pool holds %d shells, bound %d", n, shellPoolMax)
	}
	if got := goroutines(); got > base+shellPoolMax {
		t.Errorf("%d goroutines after the engine ran, want at most %d + %d", got, base, shellPoolMax)
	}
}

// TestShellReuseAllocs: on a warm pool a fresh engine's process makes
// no coroutine. New, one Spawn of a process that returns at once, and
// Run allocated 21 times while each Spawn called iter.Pull; on a pooled
// shell they allocate 9 times.
func TestShellReuseAllocs(t *testing.T) {
	got := testing.AllocsPerRun(100, func() {
		e := New(1)
		e.Spawn("one", func(p *Proc) {})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 9 {
		t.Fatalf("a fresh engine and one process on a warm pool: %.0f allocations, want 9", got)
	}
}

// TestTimerAllocs pins the timer path's allocation budgets, the numbers
// the README states: once an engine has nodes to recycle, a timer
// scheduled by either callback form and fired, or scheduled and
// canceled, allocates nothing, and so does a process's WithTimeout +
// Sleep + cancel cycle: the deriving process's cancel hands the context
// back to the engine, and its CancelFunc is bound once per record. A
// recycled process on a pooled shell costs nothing itself, so the cycle
// is measured as one process spawned and run.
func TestTimerAllocs(t *testing.T) {
	e := New(1)
	fn := func() {}
	afn := func(any) {}
	run := func() {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	idle := func(p *Proc) {}
	cycle := func(p *Proc) {
		ctx, cancel := p.WithTimeout(e.Context(), time.Hour)
		_ = p.Sleep(ctx, time.Millisecond)
		cancel()
	}
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Schedule then fire", 0, func() { e.Schedule(time.Second, fn); run() }},
		{"ScheduleArg then fire", 0, func() { e.ScheduleArg(time.Second, afn, e); run() }},
		{"Schedule then Cancel", 0, func() { e.Schedule(time.Hour, fn).Cancel() }},
		{"Spawn and Run", 0, func() { e.Spawn("idle", idle); run() }},
		{"WithTimeout + Sleep + cancel", 0, func() { e.Spawn("cycle", cycle); run() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

// TestTryAttemptAllocs is the allocation budget of one core.Try attempt
// on the sim, with a duration budget: none. The try's timeout context
// comes from the engine's free list and goes back when Try's deferred
// cancel runs; its backoff and budget live on Try's stack.
func TestTryAttemptAllocs(t *testing.T) {
	e := New(1)
	var allocs float64
	op := func(context.Context) error { return nil }
	e.Spawn("client", func(p *Proc) {
		ctx := e.Context()
		allocs = testing.AllocsPerRun(100, func() {
			if err := core.Try(ctx, p, core.For(time.Minute), core.TryConfig{}, op); err != nil {
				t.Error(err)
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per Try attempt: budget 0", allocs)
	}
}
