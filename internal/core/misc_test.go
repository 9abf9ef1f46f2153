package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestDisciplineStrings(t *testing.T) {
	cases := map[Discipline]string{Fixed: "Fixed", Aloha: "Aloha", Ethernet: "Ethernet", Discipline(9): "unknown"}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestParseDiscipline(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Discipline
		ok   bool
	}{
		{"Fixed", Fixed, true}, {"fixed", Fixed, true},
		{"Aloha", Aloha, true}, {"aloha", Aloha, true},
		{"Ethernet", Ethernet, true}, {"ethernet", Ethernet, true},
		{"token-ring", 0, false}, {"", 0, false},
	} {
		got, ok := ParseDiscipline(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseDiscipline(%q) = %v,%v", c.in, got, ok)
		}
	}
}

func TestEventStrings(t *testing.T) {
	want := map[Event]string{
		EvAttempt: "attempt", EvSuccess: "success", EvFailure: "failure",
		EvCollision: "collision", EvDefer: "defer", EvBackoff: "backoff",
		EvExhausted: "exhausted", Event(42): "unknown",
	}
	for ev, s := range want {
		if ev.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(ev), ev.String(), s)
		}
	}
}

func TestErrorTextsAndUnwrapping(t *testing.T) {
	// Collision with and without a cause.
	bare := Collision("disk", nil)
	if !IsCollision(bare) || !strings.Contains(bare.Error(), "disk") {
		t.Fatalf("bare = %v", bare)
	}
	caused := Collision("disk", errors.New("ENOSPC"))
	if !IsCollision(caused) || !strings.Contains(caused.Error(), "ENOSPC") {
		t.Fatalf("caused = %v", caused)
	}
	// Deferred.
	d := Deferred("fds")
	if !IsDeferred(d) || IsCollision(d) {
		t.Fatalf("d = %v", d)
	}
	// ExhaustedError with and without a last error.
	ex := &ExhaustedError{Attempts: 3, Elapsed: time.Minute, Last: ErrFailure}
	if !strings.Contains(ex.Error(), "3 attempts") || !errors.Is(ex, ErrFailure) {
		t.Fatalf("ex = %v", ex)
	}
	exNil := &ExhaustedError{Attempts: 1, Elapsed: time.Second}
	if !strings.Contains(exNil.Error(), "exhausted") {
		t.Fatalf("exNil = %v", exNil)
	}
	// AllFailedError unwraps to its branches.
	all := &AllFailedError{Errs: []error{ErrFailure, Collision("x", nil)}}
	if !strings.Contains(all.Error(), "2 alternatives") {
		t.Fatalf("all = %v", all)
	}
	if !errors.Is(all, ErrFailure) || !errors.Is(all, ErrCollision) {
		t.Fatal("AllFailedError does not unwrap to branch errors")
	}
	// BranchError counts failures and unwraps.
	be := &BranchError{Errs: []error{nil, ErrFailure, nil}}
	if !strings.Contains(be.Error(), "1 of 3") || !errors.Is(be, ErrFailure) {
		t.Fatalf("be = %v", be)
	}
}

// TestRefusalTextAndChain pins the typed error behind Collision and
// Deferred to the fmt.Errorf wrappers it replaced: same text, same
// answers from errors.Is/As, and no formatting work until Error is
// called.
func TestRefusalTextAndChain(t *testing.T) {
	oldCollision := func(name string, err error) error {
		if err == nil {
			return fmt.Errorf("%s: %w", name, ErrCollision)
		}
		return fmt.Errorf("%s: %w: %w", name, ErrCollision, err)
	}
	rejected := Rejected("fds", 3)
	for _, tc := range []struct {
		name      string
		got, want error
	}{
		{"nil cause", Collision("fd", nil), oldCollision("fd", nil)},
		{"sentinel cause", Collision("fd", ErrStale), oldCollision("fd", ErrStale)},
		{"rejected cause", Collision("fd", rejected), oldCollision("fd", rejected)},
		{"nested", Collision("outer", Collision("inner", ErrLost)), oldCollision("outer", oldCollision("inner", ErrLost))},
		{"deferred", Deferred("fd"), fmt.Errorf("%s: %w", "fd", ErrDeferred)},
	} {
		if tc.got.Error() != tc.want.Error() {
			t.Errorf("%s: text %q, want %q", tc.name, tc.got.Error(), tc.want.Error())
		}
		for _, target := range []error{ErrCollision, ErrDeferred, ErrStale, ErrLost, ErrFailure} {
			if got, want := errors.Is(tc.got, target), errors.Is(tc.want, target); got != want {
				t.Errorf("%s: errors.Is(_, %v) = %v, want %v", tc.name, target, got, want)
			}
		}
		if got, want := Rejection(tc.got), Rejection(tc.want); got != want {
			t.Errorf("%s: Rejection = %v, want %v", tc.name, got, want)
		}
	}

	var sink error
	if n := testing.AllocsPerRun(100, func() { sink = Collision("fd", ErrStale) }); n > 1 {
		t.Errorf("Collision allocates %v times, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = Deferred("fd") }); n > 1 {
		t.Errorf("Deferred allocates %v times, want <= 1", n)
	}
	_ = sink
}

func TestObserverFuncAdapter(t *testing.T) {
	var got Event
	f := ObserverFunc(func(ev Event, at time.Time, detail error) { got = ev })
	f.Observe(EvSuccess, time.Now(), nil)
	if got != EvSuccess {
		t.Fatalf("got = %v", got)
	}
}

func TestRealWithCancelAndTimeout(t *testing.T) {
	rt := NewReal(0) // exercise the time-seeded path
	ctx, cancel := rt.WithCancel(context.Background())
	cancel()
	if ctx.Err() == nil {
		t.Fatal("canceled ctx live")
	}
	tctx, tcancel := rt.WithTimeout(context.Background(), time.Millisecond)
	defer tcancel()
	<-tctx.Done()
	if !errors.Is(tctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v", tctx.Err())
	}
}

func TestRealSleepZeroAndNegative(t *testing.T) {
	rt := NewReal(1)
	if err := rt.Sleep(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sleep(context.Background(), -time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffPeekAtCap(t *testing.T) {
	b := NewBackoff(func() float64 { return 0 })
	b.Base = 30 * time.Minute
	b.Cap = time.Hour
	b.Reset()
	b.Next() // 30m
	if p := b.Peek(); p != time.Hour {
		t.Fatalf("Peek = %v, want capped 1h", p)
	}
	b.Next()
	if p := b.Peek(); p != time.Hour {
		t.Fatalf("Peek at cap = %v", p)
	}
}

func TestBackoffRandMinScaling(t *testing.T) {
	// RandMin == RandMax != 1 applies a fixed multiplier.
	b := &Backoff{Base: time.Second, Cap: time.Hour, Factor: 2, RandMin: 3, RandMax: 3}
	b.Reset()
	if got := b.Next(); got != 3*time.Second {
		t.Fatalf("Next = %v, want 3s", got)
	}
}

func TestThresholdSenseBoundary(t *testing.T) {
	free := int64(1000)
	sense := ThresholdSense("fds", func() int64 { return free }, 1000)
	if err := sense(context.Background()); err != nil {
		t.Fatalf("at threshold: %v (>= threshold must pass)", err)
	}
	free = 999
	if err := sense(context.Background()); !IsDeferred(err) {
		t.Fatalf("below threshold: %v", err)
	}
}

func TestProbeSenseSuccess(t *testing.T) {
	rt := NewReal(1)
	sense := ProbeSense(rt, time.Second, func(ctx context.Context) error { return nil })
	if err := sense(context.Background()); err != nil {
		t.Fatalf("err = %v", err)
	}
}
