package condor

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestFDTable(t *testing.T) {
	e := sim.New(1)
	tb := NewCluster(e.RT(), Config{FDCapacity: 100}).FDs
	ctx := e.Context()
	_, ok1 := tb.TryAcquire(nil, ctx, "a", 60)
	l, ok2 := tb.TryAcquire(nil, ctx, "b", 40)
	if !ok1 || !ok2 {
		t.Fatal("acquire within capacity failed")
	}
	if _, ok := tb.TryAcquire(nil, ctx, "c", 1); ok {
		t.Fatal("acquire over capacity succeeded")
	}
	if f := tb.(*lease.Manager).Rejects; f != 1 {
		t.Fatalf("Failures = %d", f)
	}
	l.Release()
	if tb.Sense().Free() != 40 {
		t.Fatalf("Free = %d", tb.Sense().Free())
	}
}

// TestHousekeepingCrashRule: a housekeeping tick crashes the schedd iff
// fewer than HousekeepFDs descriptors are free, and it only senses the
// table: no grant, refusal or held unit is left on the books.
func TestHousekeepingCrashRule(t *testing.T) {
	for _, c := range []struct{ held, crashes int64 }{{49, 0}, {50, 0}, {51, 1}} {
		e := sim.New(1)
		cl := NewCluster(e.RT(), Config{FDCapacity: 100, HousekeepFDs: 50, HousekeepInterval: 5 * time.Second})
		if _, ok := cl.FDs.TryAcquire(nil, e.Context(), "other", c.held); !ok {
			t.Fatalf("held %d: acquire refused", c.held)
		}
		ctx, cancel := e.WithTimeout(e.Context(), 6*time.Second) // one tick
		cl.StartHousekeeping(ctx)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		cancel()
		if cl.Schedd.Crashes != c.crashes {
			t.Errorf("Free %d of 50 needed: %d crashes, want %d", cl.FDs.Sense().Free(), cl.Schedd.Crashes, c.crashes)
		}
		m := cl.FDs.(*lease.Manager)
		if m.Acquires != 1 || m.Rejects != 0 || m.Sense().InUse != c.held {
			t.Errorf("held %d: housekeeping moved the books: grants %d, rejects %d, in use %d", c.held, m.Acquires, m.Rejects, m.Sense().InUse)
		}
	}
}

func TestSingleSubmitSucceeds(t *testing.T) {
	e := sim.New(1)
	cl := NewCluster(e.RT(), Config{})
	var err error
	e.Spawn("sub", func(p *sim.Proc) {
		err = cl.Schedd.Submit(p, e.Context())
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if cl.Schedd.Jobs != 1 {
		t.Fatalf("Jobs = %d", cl.Schedd.Jobs)
	}
	if cl.FDs.Sense().InUse != 0 {
		t.Fatalf("FDs leaked: %d in use", cl.FDs.Sense().InUse)
	}
	// Service time 1.5s ± 20%.
	if e.Elapsed() < 1200*time.Millisecond || e.Elapsed() > 1800*time.Millisecond {
		t.Fatalf("elapsed = %v", e.Elapsed())
	}
}

func TestSubmitFailsWhenFDsExhausted(t *testing.T) {
	e := sim.New(1)
	cl := NewCluster(e.RT(), Config{FDCapacity: 100, ClientFDs: 90, ClientFDJitter: -1})
	cl.FDs.TryAcquire(nil, e.Context(), "other", 20) // someone else holds 20
	var err error
	e.Spawn("sub", func(p *sim.Proc) {
		err = cl.Schedd.Submit(p, e.Context())
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if !core.IsCollision(err) {
		t.Fatalf("err = %v, want collision", err)
	}
	if e.Elapsed() == 0 {
		t.Fatal("failed connect must cost time")
	}
}

func TestScheddCrashOnFDExhaustionResetsClients(t *testing.T) {
	e := sim.New(1)
	// Room for exactly one client's FDs + schedd conn; the second client
	// triggers a crash when the schedd can't allocate its side.
	cl := NewCluster(e.RT(), Config{
		FDCapacity: 40, ClientFDs: 16, ClientFDJitter: -1, ScheddFDs: 8,
		ServiceSlots: 1, ServiceTime: 10 * time.Second,
	})
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("sub", func(p *sim.Proc) {
			if i == 1 {
				p.SleepFor(time.Second) // arrive second
			}
			errs[i] = cl.Schedd.Submit(p, e.Context())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Client 1: 16+8 = 24 FDs in use; client 2 takes 16 more (40), then
	// the schedd cannot take 8 → crash; client 0 is reset too.
	if !core.IsCollision(errs[0]) || !core.IsCollision(errs[1]) {
		t.Fatalf("errs = %v", errs)
	}
	if cl.Schedd.Crashes != 1 {
		t.Fatalf("Crashes = %d", cl.Schedd.Crashes)
	}
	if cl.FDs.Sense().InUse != 0 {
		t.Fatalf("FDs leaked after crash: %d", cl.FDs.Sense().InUse)
	}
}

func TestScheddRestartsAfterDelay(t *testing.T) {
	e := sim.New(1)
	cl := NewCluster(e.RT(), Config{RestartDelay: 30 * time.Second})
	cl.Schedd.crash()
	var err1, err2 error
	e.Spawn("sub", func(p *sim.Proc) {
		err1 = cl.Schedd.Submit(p, e.Context())
		p.SleepFor(40 * time.Second)
		err2 = cl.Schedd.Submit(p, e.Context())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !core.IsCollision(err1) {
		t.Fatalf("err1 = %v, want refused", err1)
	}
	if err2 != nil {
		t.Fatalf("err2 = %v, want success after restart", err2)
	}
}

func TestSubmitHonorsCallerTimeout(t *testing.T) {
	e := sim.New(1)
	cl := NewCluster(e.RT(), Config{ServiceSlots: 1, ServiceTime: time.Hour})
	// First client occupies the only slot for an hour; second times out
	// while queued.
	var err error
	e.Spawn("holder", func(p *sim.Proc) {
		_ = cl.Schedd.Submit(p, e.Context())
	})
	e.Spawn("waiter", func(p *sim.Proc) {
		p.SleepFor(time.Second)
		ctx, cancel := p.WithTimeout(e.Context(), 10*time.Second)
		defer cancel()
		err = cl.Schedd.Submit(p, ctx)
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestSubmitterLoopCountsJobs(t *testing.T) {
	e := sim.New(1)
	cl := NewCluster(e.RT(), Config{})
	ctx, cancel := e.WithTimeout(e.Context(), 60*time.Second)
	defer cancel()
	var sub Submitter
	e.Spawn("sub", func(p *sim.Proc) {
		sub.Loop(p, ctx, cl, DefaultSubmitterConfig(core.Aloha))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// ~2.5s per job cycle over 60s → ~24 jobs.
	if sub.Submitted < 15 || sub.Submitted > 40 {
		t.Fatalf("Submitted = %d", sub.Submitted)
	}
	if cl.Schedd.Jobs != sub.Submitted {
		t.Fatalf("schedd %d vs client %d", cl.Schedd.Jobs, sub.Submitted)
	}
}

func TestEthernetSubmitterDefersUnderFDPressure(t *testing.T) {
	e := sim.New(1)
	cl := NewCluster(e.RT(), Config{FDCapacity: 2000})
	l, _ := cl.FDs.TryAcquire(nil, e.Context(), "other", 1500) // free = 500 < threshold 1000
	e.Schedule(30*time.Second, l.Release)
	ctx, cancel := e.WithTimeout(e.Context(), 60*time.Second)
	defer cancel()
	tr := trace.New()
	cfg := DefaultSubmitterConfig(core.Ethernet)
	cfg.Trace = tr.NewClient("Ethernet", "sub", e.Elapsed)
	var sub Submitter
	e.Spawn("sub", func(p *sim.Proc) { sub.Loop(p, ctx, cl, cfg) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defers := 0
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KDefer {
			defers++
		}
	}
	if defers == 0 {
		t.Fatal("no deferrals under FD pressure")
	}
	if sub.Submitted == 0 {
		t.Fatal("never submitted after pressure lifted")
	}
	if f := cl.FDs.(*lease.Manager).Rejects; f != 0 {
		t.Fatalf("Ethernet client caused %d FD allocation failures", f)
	}
}

// Property: FDs never leak across arbitrary interleavings of submitters.
func TestQuickNoFDLeak(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		e := sim.New(seed)
		cl := NewCluster(e.RT(), Config{
			FDCapacity: 120, ClientFDs: 16, ScheddFDs: 4,
			ServiceSlots: 2, ServiceTime: 2 * time.Second,
			RestartDelay: 5 * time.Second,
		})
		ctx, cancel := e.WithTimeout(e.Context(), 90*time.Second)
		defer cancel()
		for i := 0; i < n; i++ {
			e.Spawn("sub", func(p *sim.Proc) {
				var sub Submitter
				cfg := DefaultSubmitterConfig(core.Discipline(seed % 3))
				cfg.TryLimit = 20 * time.Second
				sub.Loop(p, ctx, cl, cfg)
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return cl.FDs.Sense().InUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitAllocs pins the cost of an uncontended submission on the
// simulator at zero allocations: the FD table hands lease handles out
// by value, so neither the seam nor a handle is boxed.
func TestSubmitAllocs(t *testing.T) {
	e := sim.New(1)
	cl := NewCluster(e.RT(), Config{})
	var allocs float64
	e.Spawn("sub", func(p *sim.Proc) {
		ctx := e.Context()
		allocs = testing.AllocsPerRun(1000, func() {
			if err := cl.Schedd.Submit(p, ctx); err != nil {
				t.Error(err)
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.2f allocations per Submit: budget 0", allocs)
	}
}
