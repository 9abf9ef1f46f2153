package chaos

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/sim"
)

// runFor keeps the engine alive until the horizon by scheduling an
// end-of-window no-op, then runs it to quiescence.
func runFor(t *testing.T, e *sim.Engine, window time.Duration) {
	t.Helper()
	e.Schedule(window, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneDetectsDecrease(t *testing.T) {
	e := sim.New(1)
	rec := &Recorder{}
	inv := NewInvariants(e.RT(), rec)
	v := 0.0
	inv.Monotone("jobs", func() float64 { return v })
	e.Schedule(1500*time.Millisecond, func() { v = 10 })
	e.Schedule(2500*time.Millisecond, func() { v = 3 }) // decrease!
	ctx, cancel := context.WithCancel(context.Background())
	inv.Start(ctx)
	e.Schedule(5*time.Second, cancel)
	runFor(t, e, 5*time.Second)
	inv.Finish()
	if rec.Ok() {
		t.Fatal("decreasing observable not flagged")
	}
	if got := rec.Violations[0].Check; got != "monotone" {
		t.Errorf("check = %q, want monotone", got)
	}
}

func TestMonotonePassesOnIncrease(t *testing.T) {
	e := sim.New(1)
	inv := NewInvariants(e.RT(), nil)
	v := 0.0
	inv.Monotone("jobs", func() float64 { return v })
	for i := 1; i <= 4; i++ {
		i := i
		e.Schedule(time.Duration(i)*1500*time.Millisecond, func() { v = float64(i * 10) })
	}
	ctx, cancel := context.WithCancel(context.Background())
	inv.Start(ctx)
	e.Schedule(10*time.Second, cancel)
	runFor(t, e, 10*time.Second)
	inv.Finish()
	if err := inv.Err(); err != nil {
		t.Fatalf("clean monotone run flagged: %v", err)
	}
}

func TestCarrierFloorFlagsSustainedExcursion(t *testing.T) {
	e := sim.New(1)
	rec := &Recorder{}
	inv := NewInvariants(e.RT(), rec)
	free := int64(100)
	inv.CarrierFloor("fds", func() lease.Sense { return lease.Sense{Capacity: 200, InUse: 200 - free} }, 100, 5*time.Second) // floor 50
	e.Schedule(10*time.Second, func() { free = 10 })                                                                         // sustained dip, never recovers
	ctx, cancel := context.WithCancel(context.Background())
	inv.Start(ctx)
	e.Schedule(30*time.Second, cancel)
	runFor(t, e, 30*time.Second)
	inv.Finish()
	if rec.Ok() {
		t.Fatal("sustained below-floor excursion not flagged")
	}
	if got := rec.Violations[0].Check; got != "carrier-floor" {
		t.Errorf("check = %q, want carrier-floor", got)
	}
	if n := len(rec.Violations); n != 1 {
		t.Errorf("%d violations for one continuous excursion, want 1", n)
	}
}

func TestCarrierFloorToleratesBriefDip(t *testing.T) {
	e := sim.New(1)
	rec := &Recorder{}
	inv := NewInvariants(e.RT(), rec)
	free := int64(100)
	inv.CarrierFloor("fds", func() lease.Sense { return lease.Sense{Capacity: 200, InUse: 200 - free} }, 100, 5*time.Second) // floor 50
	e.Schedule(10*time.Second, func() { free = 10 })
	e.Schedule(13*time.Second, func() { free = 80 }) // recovers inside the budget
	ctx, cancel := context.WithCancel(context.Background())
	inv.Start(ctx)
	e.Schedule(30*time.Second, cancel)
	runFor(t, e, 30*time.Second)
	inv.Finish()
	if !rec.Ok() {
		t.Fatalf("brief dip flagged: %v", rec.Err())
	}
}

// TestCarrierFloorHalvesUnderSqueeze: clients sensing against a
// threshold of 100 keep a floor of 50, but a table squeezed to 40 units
// can keep only 20 free, and a violation reports the reading it judged.
func TestCarrierFloorHalvesUnderSqueeze(t *testing.T) {
	e := sim.New(1)
	rec := &Recorder{}
	inv := NewInvariants(e.RT(), rec)
	s := lease.Sense{Capacity: 40, InUse: 15} // free 25: below 50, above 20
	inv.CarrierFloor("fds", func() lease.Sense { return s }, 100, 5*time.Second)
	e.Schedule(10*time.Second, func() { s.InUse = 25 }) // free 15, below 20
	ctx, cancel := context.WithCancel(context.Background())
	inv.Start(ctx)
	e.Schedule(30*time.Second, cancel)
	runFor(t, e, 30*time.Second)
	inv.Finish()
	if n := len(rec.Violations); n != 1 {
		t.Fatalf("%d violations, want 1: %v", n, rec.Err())
	}
	if d := rec.Violations[0].Detail; !strings.HasPrefix(d, "fds: free=15 below floor 20 for ") {
		t.Errorf("detail = %q, want the judged free=15 and floor 20", d)
	}
}

func TestHorizonFlagsEarlyQuiesce(t *testing.T) {
	e := sim.New(1)
	rec := &Recorder{}
	inv := NewInvariants(e.RT(), rec)
	inv.Horizon(time.Minute)
	// No work scheduled beyond 10s: the "run" deadlocks early.
	runFor(t, e, 10*time.Second)
	inv.Finish()
	if rec.Ok() {
		t.Fatal("early quiesce not flagged as deadlock")
	}
	if got := rec.Violations[0].Check; got != "liveness" {
		t.Errorf("check = %q, want liveness", got)
	}
}

func TestRecorderErrTruncates(t *testing.T) {
	rec := &Recorder{}
	if rec.Err() != nil {
		t.Fatal("empty recorder returned an error")
	}
	for i := 0; i < 8; i++ {
		rec.Add(Violation{Check: "monotone", Detail: "x"})
	}
	err := rec.Err()
	if err == nil {
		t.Fatal("nonempty recorder returned nil")
	}
	if !strings.Contains(err.Error(), "8 invariant violation(s)") ||
		!strings.Contains(err.Error(), "and 3 more") {
		t.Errorf("error = %q", err)
	}
}
