package channel

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestSingleTransmitterNeverCollides(t *testing.T) {
	e := sim.New(1)
	ch := New(e.RT())
	var err error
	e.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err = ch.Transmit(p, e.Context(), time.Millisecond); err != nil {
				return
			}
		}
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if ch.Successes != 10 || ch.Collisions != 0 {
		t.Fatalf("successes=%d collisions=%d", ch.Successes, ch.Collisions)
	}
}

func TestOverlappingTransmissionsBothCollide(t *testing.T) {
	e := sim.New(1)
	ch := New(e.RT())
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("s", func(p *sim.Proc) {
			if i == 1 {
				p.SleepFor(500 * time.Microsecond) // overlap mid-frame
			}
			errs[i] = ch.Transmit(p, e.Context(), time.Millisecond)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if !core.IsCollision(err) {
			t.Errorf("station %d err = %v, want collision", i, err)
		}
	}
	if ch.Collisions != 2 || ch.Successes != 0 {
		t.Fatalf("collisions=%d successes=%d", ch.Collisions, ch.Successes)
	}
}

func TestNonOverlappingTransmissionsSucceed(t *testing.T) {
	e := sim.New(1)
	ch := New(e.RT())
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("s", func(p *sim.Proc) {
			p.SleepFor(time.Duration(i) * 2 * time.Millisecond)
			if err := ch.Transmit(p, e.Context(), time.Millisecond); err != nil {
				t.Errorf("station %d: %v", i, err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ch.Successes != 2 {
		t.Fatalf("successes = %d", ch.Successes)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	e := sim.New(1)
	ch := New(e.RT())
	e.Spawn("s", func(p *sim.Proc) {
		// 1 ms busy, 1 ms idle, 1 ms busy => 2/3 utilization at t=3ms.
		_ = ch.Transmit(p, e.Context(), time.Millisecond)
		p.SleepFor(time.Millisecond)
		_ = ch.Transmit(p, e.Context(), time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := ch.Utilization(); u < 0.66 || u > 0.67 {
		t.Fatalf("utilization = %v, want 2/3", u)
	}
}
