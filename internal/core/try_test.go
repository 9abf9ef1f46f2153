package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// runSim executes body inside a single simulated process and returns the
// engine so tests can inspect elapsed virtual time.
func runSim(t *testing.T, seed int64, body func(p *sim.Proc, ctx context.Context)) *sim.Engine {
	t.Helper()
	e := sim.New(seed)
	e.Spawn("test", func(p *sim.Proc) { body(p, e.Context()) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTrySucceedsFirstAttempt(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		calls := 0
		err := core.Try(ctx, p, core.For(time.Minute), core.TryConfig{}, func(ctx context.Context) error {
			calls++
			return nil
		})
		if err != nil || calls != 1 {
			t.Errorf("err=%v calls=%d", err, calls)
		}
	})
}

func TestTryRetriesUntilSuccess(t *testing.T) {
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		calls := 0
		err := core.Try(ctx, p, core.For(time.Hour), core.TryConfig{}, func(ctx context.Context) error {
			calls++
			if calls < 4 {
				return core.ErrFailure
			}
			return nil
		})
		if err != nil || calls != 4 {
			t.Errorf("err=%v calls=%d", err, calls)
		}
	})
	// Three backoffs of at least 1s+2s+4s must have elapsed.
	if e.Elapsed() < 7*time.Second {
		t.Fatalf("elapsed %v, want >= 7s of backoff", e.Elapsed())
	}
	// And randomization bounds them below 2x the deterministic sum.
	if e.Elapsed() >= 14*time.Second {
		t.Fatalf("elapsed %v, want < 14s", e.Elapsed())
	}
}

func TestTryAttemptLimit(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		calls := 0
		err := core.Try(ctx, p, core.Times(5), core.TryConfig{}, func(ctx context.Context) error {
			calls++
			return core.ErrFailure
		})
		var ex *core.ExhaustedError
		if !errors.As(err, &ex) {
			t.Errorf("err = %v, want ExhaustedError", err)
			return
		}
		if calls != 5 || ex.Attempts != 5 {
			t.Errorf("calls=%d attempts=%d, want 5", calls, ex.Attempts)
		}
		if !errors.Is(err, core.ErrFailure) {
			t.Errorf("ExhaustedError should unwrap to last attempt error")
		}
	})
}

func TestTryTimeBudgetCancelsInFlightAttempt(t *testing.T) {
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		err := core.Try(ctx, p, core.For(10*time.Second), core.TryConfig{}, func(ctx context.Context) error {
			// An attempt that would take an hour: the try deadline must
			// cut it off, like ftsh killing the process session.
			return p.Sleep(ctx, time.Hour)
		})
		var ex *core.ExhaustedError
		if !errors.As(err, &ex) {
			t.Errorf("err = %v, want ExhaustedError", err)
			return
		}
		if !errors.Is(ex.Last, context.DeadlineExceeded) {
			t.Errorf("last = %v, want DeadlineExceeded", ex.Last)
		}
	})
	if e.Elapsed() != 10*time.Second {
		t.Fatalf("elapsed %v, want exactly the 10s budget", e.Elapsed())
	}
}

func TestTryForOrTimesWhicheverFirst(t *testing.T) {
	// Attempts are instant; the attempt bound must trigger long before
	// the time bound.
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		calls := 0
		err := core.Try(ctx, p, core.ForOrTimes(time.Hour, 3), core.TryConfig{}, func(ctx context.Context) error {
			calls++
			return core.ErrFailure
		})
		if calls != 3 {
			t.Errorf("calls = %d, want 3", calls)
		}
		var ex *core.ExhaustedError
		if !errors.As(err, &ex) {
			t.Errorf("err = %v", err)
		}
	})
	if e.Elapsed() > 10*time.Second {
		t.Fatalf("elapsed %v; attempt bound should stop well before 1h", e.Elapsed())
	}
}

func TestTryZeroLimitIsSingleAttempt(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		calls := 0
		err := core.Try(ctx, p, core.Limit{}, core.TryConfig{}, func(ctx context.Context) error {
			calls++
			return core.ErrFailure
		})
		if calls != 1 {
			t.Errorf("calls = %d, want 1", calls)
		}
		if err == nil {
			t.Error("want error")
		}
	})
}

func TestTryNoBackoffRetriesImmediately(t *testing.T) {
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		calls := 0
		_ = core.Try(ctx, p, core.Times(100), core.TryConfig{NoBackoff: true}, func(ctx context.Context) error {
			calls++
			return core.ErrFailure
		})
		if calls != 100 {
			t.Errorf("calls = %d, want 100", calls)
		}
	})
	if e.Elapsed() != 0 {
		t.Fatalf("elapsed %v, want 0 for fixed discipline", e.Elapsed())
	}
}

func TestTrySenseDefersWithoutRunningOp(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		busy := true
		senses, ops := 0, 0
		var events []core.Event
		obs := core.ObserverFunc(func(ev core.Event, at time.Time, detail error) {
			events = append(events, ev)
		})
		cfg := core.TryConfig{
			Observer: obs,
			Sense: func(ctx context.Context) error {
				senses++
				if busy {
					busy = false
					return core.Deferred("fds")
				}
				return nil
			},
		}
		err := core.Try(ctx, p, core.For(time.Hour), cfg, func(ctx context.Context) error {
			ops++
			return nil
		})
		if err != nil {
			t.Errorf("err = %v", err)
		}
		if senses != 2 || ops != 1 {
			t.Errorf("senses=%d ops=%d, want 2 and 1", senses, ops)
		}
		wantPrefix := []core.Event{core.EvDefer, core.EvBackoff, core.EvAttempt, core.EvSuccess}
		for i, w := range wantPrefix {
			if i >= len(events) || events[i] != w {
				t.Fatalf("events = %v, want prefix %v", events, wantPrefix)
			}
		}
	})
}

func TestTryObserverSeesCollision(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		var got []core.Event
		obs := core.ObserverFunc(func(ev core.Event, at time.Time, detail error) { got = append(got, ev) })
		_ = core.Try(ctx, p, core.Times(1), core.TryConfig{Observer: obs}, func(ctx context.Context) error {
			return core.Collision("disk", nil)
		})
		want := []core.Event{core.EvAttempt, core.EvCollision, core.EvExhausted}
		if len(got) != len(want) {
			t.Fatalf("events = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("events = %v, want %v", got, want)
			}
		}
	})
}

func TestTryParentCancelPropagates(t *testing.T) {
	e := sim.New(1)
	ctx, cancel := e.WithCancel(e.Context())
	var err error
	e.Spawn("t", func(p *sim.Proc) {
		err = core.Try(ctx, p, core.For(time.Hour), core.TryConfig{}, func(ctx context.Context) error {
			return core.ErrFailure
		})
	})
	e.Schedule(5*time.Second, func() { cancel() })
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForanyReturnsFirstWinnerInOrder(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		var tried []string
		win, err := core.Forany(ctx, p, []string{"xxx", "yyy", "zzz"}, false, func(ctx context.Context, s string) error {
			tried = append(tried, s)
			if s == "yyy" {
				return nil
			}
			return core.ErrFailure
		})
		if err != nil || win != "yyy" {
			t.Errorf("win=%q err=%v", win, err)
		}
		if len(tried) != 2 || tried[0] != "xxx" || tried[1] != "yyy" {
			t.Errorf("tried = %v", tried)
		}
	})
}

func TestForanyAllFail(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		_, err := core.Forany(ctx, p, []string{"a", "b"}, false, func(ctx context.Context, s string) error {
			return fmt.Errorf("%s: %w", s, core.ErrFailure)
		})
		var all *core.AllFailedError
		if !errors.As(err, &all) || len(all.Errs) != 2 {
			t.Errorf("err = %v", err)
		}
	})
}

func TestForanyShuffleCoversAllOrders(t *testing.T) {
	firsts := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		runSim(t, seed, func(p *sim.Proc, ctx context.Context) {
			var first string
			_, _ = core.Forany(ctx, p, []string{"a", "b", "c"}, true, func(ctx context.Context, s string) error {
				if first == "" {
					first = s
				}
				return core.ErrFailure
			})
			firsts[first] = true
		})
	}
	if len(firsts) < 3 {
		t.Fatalf("shuffle never varied first pick: %v", firsts)
	}
}

func TestForallAllSucceed(t *testing.T) {
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		err := core.Forall(ctx, p, []string{"f1", "f2", "f3"}, func(ctx context.Context, rt core.Runtime, item string) error {
			return rt.Sleep(ctx, 10*time.Second)
		})
		if err != nil {
			t.Errorf("err = %v", err)
		}
	})
	if e.Elapsed() != 10*time.Second {
		t.Fatalf("elapsed %v, want 10s (parallel, not 30s)", e.Elapsed())
	}
}

func TestForallFailureAbortsOutstandingBranches(t *testing.T) {
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		err := core.Forall(ctx, p, []string{"fast-fail", "slow"}, func(ctx context.Context, rt core.Runtime, item string) error {
			if item == "fast-fail" {
				_ = rt.Sleep(ctx, time.Second)
				return core.ErrFailure
			}
			return rt.Sleep(ctx, time.Hour)
		})
		var be *core.BranchError
		if !errors.As(err, &be) {
			t.Errorf("err = %v, want BranchError", err)
			return
		}
		if be.Errs[0] == nil {
			t.Error("fast-fail branch error missing")
		}
		if !errors.Is(be.Errs[1], context.Canceled) {
			t.Errorf("slow branch err = %v, want Canceled", be.Errs[1])
		}
	})
	if e.Elapsed() != time.Second {
		t.Fatalf("elapsed %v, want 1s: failure must abort the hour-long branch", e.Elapsed())
	}
}

func TestForallEmpty(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		if err := core.Forall(ctx, p, nil, func(ctx context.Context, rt core.Runtime, item string) error { return nil }); err != nil {
			t.Errorf("err = %v", err)
		}
	})
}

func TestNestedTryMatchesPaperExample(t *testing.T) {
	// try for 30 minutes { try for 5 minutes {fetch}; try for 1 minute
	// or 3 times {unpack} } — §4's nesting example. The fetch always
	// hangs; the outer budget must bound everything to 30 minutes.
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		err := core.Try(ctx, p, core.For(30*time.Minute), core.TryConfig{}, func(ctx context.Context) error {
			if err := core.Try(ctx, p, core.For(5*time.Minute), core.TryConfig{}, func(ctx context.Context) error {
				return p.Sleep(ctx, time.Hour) // hung fetch
			}); err != nil {
				return err
			}
			return core.Try(ctx, p, core.ForOrTimes(time.Minute, 3), core.TryConfig{}, func(ctx context.Context) error {
				return nil
			})
		})
		if err == nil {
			t.Error("expected exhaustion")
		}
	})
	if e.Elapsed() != 30*time.Minute {
		t.Fatalf("elapsed %v, want exactly 30m", e.Elapsed())
	}
}

func TestClientDisciplines(t *testing.T) {
	// One contended "resource": succeeds only when free >= 1.
	type result struct {
		attempts int
		defers   int
	}
	run := func(d core.Discipline) result {
		var res result
		runSim(t, 9, func(p *sim.Proc, ctx context.Context) {
			free := int64(0)
			// Resource frees up after 20 seconds.
			p.Engine().Schedule(20*time.Second, func() { free = 1 })
			obs := core.ObserverFunc(func(ev core.Event, at time.Time, detail error) {
				switch ev {
				case core.EvAttempt:
					res.attempts++
				case core.EvDefer:
					res.defers++
				}
			})
			c := &core.Client{
				Rt:         p,
				Discipline: d,
				Limit:      core.ForOrTimes(time.Minute, 1000),
				Sense:      core.ThresholdSense("free", func() int64 { return free }, 1),
				Observer:   obs,
			}
			_ = c.Do(ctx, func(ctx context.Context) error {
				if free < 1 {
					return core.Collision("res", nil)
				}
				return nil
			})
		})
		return res
	}
	fixed := run(core.Fixed)
	aloha := run(core.Aloha)
	eth := run(core.Ethernet)
	if fixed.attempts != 1000 {
		t.Errorf("fixed attempts = %d, want 1000 (hammers without delay)", fixed.attempts)
	}
	if aloha.attempts >= fixed.attempts || aloha.attempts < 2 {
		t.Errorf("aloha attempts = %d, want few (backoff)", aloha.attempts)
	}
	if eth.attempts != 1 {
		t.Errorf("ethernet attempts = %d, want exactly 1 (defers until carrier idle)", eth.attempts)
	}
	if eth.defers == 0 {
		t.Error("ethernet recorded no deferrals")
	}
}

func TestRealRuntimeSleepHonorsCancel(t *testing.T) {
	rt := core.NewReal(1)
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	err := rt.Sleep(ctx, 5*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRealRuntimeParallel(t *testing.T) {
	rt := core.NewReal(1)
	errs := rt.Parallel(context.Background(), 0, []func(context.Context, core.Runtime) error{
		func(ctx context.Context, rt core.Runtime) error { return nil },
		func(ctx context.Context, rt core.Runtime) error { return core.ErrFailure },
	})
	if errs[0] != nil || !errors.Is(errs[1], core.ErrFailure) {
		t.Fatalf("errs = %v", errs)
	}
}

func TestRealRuntimeTrySmoke(t *testing.T) {
	// The same Try code against the wall clock, with millisecond scale.
	rt := core.NewReal(1)
	calls := 0
	bo := &core.Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond, Factor: 2, RandMin: 1, RandMax: 2}
	err := core.Try(context.Background(), rt, core.For(2*time.Second), core.TryConfig{Backoff: bo}, func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return core.ErrFailure
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestProbeSense(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		// Probe hangs: sense must give up after its timeout and defer.
		sense := core.ProbeSense(p, 5*time.Second, func(ctx context.Context) error {
			return p.Sleep(ctx, time.Hour)
		})
		start := p.Now()
		err := sense(ctx)
		if !core.IsDeferred(err) {
			t.Errorf("err = %v, want deferral", err)
		}
		if got := p.Now().Sub(start); got != 5*time.Second {
			t.Errorf("probe took %v, want 5s", got)
		}
	})
}

func TestForallNBoundsParallelism(t *testing.T) {
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		err := core.ForallN(ctx, p, 2, []string{"a", "b", "c", "d"}, func(ctx context.Context, rt core.Runtime, item string) error {
			return rt.Sleep(ctx, 10*time.Second)
		})
		if err != nil {
			t.Errorf("err = %v", err)
		}
	})
	// 4 branches, 2 at a time => 20s, not 10s (unbounded) or 40s (serial).
	if e.Elapsed() != 20*time.Second {
		t.Fatalf("elapsed = %v, want 20s", e.Elapsed())
	}
}

func TestForallNAbortSkipsQueuedBranches(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		started := 0
		err := core.ForallN(ctx, p, 1, []string{"fail", "queued1", "queued2"}, func(ctx context.Context, rt core.Runtime, item string) error {
			started++
			if item == "fail" {
				return core.ErrFailure
			}
			return nil
		})
		if err == nil {
			t.Error("want failure")
		}
		if started != 1 {
			t.Errorf("started = %d, want 1: queued branches must not start after abort", started)
		}
	})
}

func TestForallNQueuedBranchReturnsPromptlyAfterAbort(t *testing.T) {
	// With one slot, the queued branch waits behind a sibling that fails
	// after 1s of virtual time. The abort must both skip the queued body
	// and resolve its slot immediately — the forall returns at the
	// sibling's failure, not after any further delay.
	e := runSim(t, 1, func(p *sim.Proc, ctx context.Context) {
		ran := false
		err := core.ForallN(ctx, p, 1, []string{"fail", "queued"}, func(ctx context.Context, rt core.Runtime, item string) error {
			if item == "queued" {
				ran = true
				return rt.Sleep(ctx, time.Hour)
			}
			_ = rt.Sleep(ctx, time.Second)
			return core.ErrFailure
		})
		var be *core.BranchError
		if !errors.As(err, &be) {
			t.Errorf("err = %v, want BranchError", err)
			return
		}
		if ran {
			t.Error("queued branch body ran after its sibling aborted the forall")
		}
		if !errors.Is(be.Errs[1], context.Canceled) {
			t.Errorf("queued branch err = %v, want Canceled", be.Errs[1])
		}
	})
	if e.Elapsed() != time.Second {
		t.Fatalf("elapsed %v, want exactly the failing sibling's 1s", e.Elapsed())
	}
}

func TestTrySharedBackoffTemplateIsNotMutated(t *testing.T) {
	// A TryConfig is a template: every submitter in an experiment shares
	// one literally, so Try must clone cfg.Backoff instead of advancing
	// the shared cursor (or writing its Rand field). Under -race the
	// in-place mutation this guards against is a reported data race; in
	// any mode the template must come out untouched.
	rt := core.NewReal(1)
	bo := &core.Backoff{Base: time.Microsecond, Cap: 8 * time.Microsecond, Factor: 2, RandMin: 1, RandMax: 2}
	cfg := core.TryConfig{Backoff: bo}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calls := 0
			_ = core.Try(context.Background(), rt, core.Times(6), cfg, func(ctx context.Context) error {
				calls++
				if calls < 6 {
					return core.ErrFailure
				}
				return nil
			})
		}()
	}
	wg.Wait()
	if got := bo.Attempts(); got != 0 {
		t.Fatalf("shared template advanced %d times; Try must clone it", got)
	}
	if bo.Rand != nil {
		t.Fatal("Try wrote a Rand source into the shared template")
	}
}

func TestRealParallelLimit(t *testing.T) {
	rt := core.NewReal(1)
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	fns := make([]func(context.Context, core.Runtime) error, 8)
	for i := range fns {
		fns[i] = func(ctx context.Context, rt core.Runtime) error {
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		}
	}
	errs := rt.Parallel(context.Background(), 3, fns)
	for _, err := range errs {
		if err != nil {
			t.Fatalf("err = %v", err)
		}
	}
	if maxInFlight > 3 {
		t.Fatalf("maxInFlight = %d, want <= 3", maxInFlight)
	}
}
