package gridd_test

// Graceful-shutdown coverage: draining must refuse new work with a
// typed retriable verdict, wait out in-flight grants, flush parked
// acquires, and fire whatever remains in (deadline, seq) order —
// matching live.Engine.Run's leftover-timer drain semantics.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gridd"
	"repro/internal/griddclient"
)

func TestShutdownDrainOrderIsDeadlineThenSeq(t *testing.T) {
	srv, c := newDaemon(t,
		gridd.ResourceConfig{Name: "a", Capacity: 8},
		gridd.ResourceConfig{Name: "b", Capacity: 8},
	)
	ctx := ctxT(t)
	acq := func(res, holder string, quantum time.Duration) {
		t.Helper()
		_, err := c.Acquire(ctx, gridd.AcquireRequest{
			Resource: res, Holder: holder, Units: 1, QuantumNS: int64(quantum),
		})
		if err != nil {
			t.Fatalf("acquire %s/%s: %v", res, holder, err)
		}
	}
	// Deadlines deliberately out of grant order, spread across both
	// resources, plus an unlimited tenure that must drain last.
	acq("a", "mid", 30*time.Second)
	acq("b", "late", 50*time.Second)
	acq("a", "early", 10*time.Second)
	acq("b", "forever", 0)

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	recs := srv.Shutdown(sctx)
	if len(recs) != 4 {
		t.Fatalf("drained %d grants; want 4: %+v", len(recs), recs)
	}
	wantHolders := []string{"early", "mid", "late", "forever"}
	for i, want := range wantHolders {
		if recs[i].Holder != want {
			t.Fatalf("drain order %v; want holders %v", recs, wantHolders)
		}
	}
	for i := 1; i < len(recs); i++ {
		di, dj := recs[i-1].DeadlineNS, recs[i].DeadlineNS
		inOrder := (dj == 0 && di >= 0) || (di != 0 && dj != 0 && di <= dj) || (di == 0 && dj == 0 && recs[i-1].Seq < recs[i].Seq)
		if !inOrder {
			t.Fatalf("drain records out of (deadline, seq) order: %+v", recs)
		}
	}
	// Idempotent: a second shutdown has nothing left to drain.
	if again := srv.Shutdown(context.Background()); len(again) != 0 {
		t.Fatalf("second Shutdown drained %+v; want nothing", again)
	}
}

func TestShutdownRefusesNewWorkWithTypedRetriableError(t *testing.T) {
	srv, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	ctx := ctxT(t)

	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// Shutdown blocks on the in-flight grant; run it aside and wait for
	// draining to take effect.
	done := make(chan []gridd.DrainRecord, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	waitFor(t, 2*time.Second, "draining to begin", func() bool {
		pr, _ := srv.Probe("fds")
		return pr.Draining
	})

	// New acquires and reservations land as the typed retriable error.
	_, err = c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "b", Units: 1})
	var ue *griddclient.UnavailableError
	if !errors.As(err, &ue) || ue.Reason != "draining" {
		t.Fatalf("acquire while draining = %v; want UnavailableError(draining)", err)
	}
	if !errors.Is(err, griddclient.ErrUnavailable) {
		t.Fatalf("draining verdict not retriable via errors.Is")
	}
	_, err = c.Reserve(ctx, gridd.ReserveRequest{
		Resource: "fds", Holder: "b", Units: 1, TenureNS: int64(time.Second),
	})
	if !errors.Is(err, griddclient.ErrUnavailable) {
		t.Fatalf("reserve while draining = %v; want ErrUnavailable", err)
	}

	// The in-flight holder can still land its release: that is the
	// entire point of draining. The shutdown then completes without
	// force-revoking anything.
	if err := lease.Release(ctx); err != nil {
		t.Fatalf("release while draining: %v", err)
	}
	select {
	case recs := <-done:
		if len(recs) != 0 {
			t.Fatalf("drain force-revoked %+v despite the release landing", recs)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Shutdown never returned after the last release")
	}
}

func TestShutdownFlushesParkedAcquires(t *testing.T) {
	srv, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 1})
	ctx := ctxT(t)

	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, gridd.AcquireRequest{
			Resource: "fds", Holder: "b", Units: 1, WaitNS: int64(10 * time.Second),
		})
		parked <- err
	}()
	waitFor(t, 2*time.Second, "waiter to park", func() bool {
		pr, _ := c.Probe(ctx, "fds")
		return pr.Queue == 1
	})

	done := make(chan []gridd.DrainRecord, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	// The parked acquire must fail fast with the draining verdict, not
	// wait out its 10-second long poll.
	select {
	case err := <-parked:
		if !errors.Is(err, griddclient.ErrUnavailable) {
			t.Fatalf("parked acquire during shutdown = %v; want ErrUnavailable", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("parked acquire not flushed by shutdown")
	}
	if err := lease.Release(ctx); err != nil {
		t.Fatalf("release: %v", err)
	}
	<-done
}

// TestLeaseHeldAcrossShutdownIsRevokedInDrainOrder is the regression
// for leases held across shutdown: a holder that never releases must
// not wedge the daemon forever — its watchdog fires during the drain,
// exactly once, and is recorded.
func TestLeaseHeldAcrossShutdownIsRevokedInDrainOrder(t *testing.T) {
	srv, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	ctx := ctxT(t)

	wedged, err := c.Acquire(ctx, gridd.AcquireRequest{
		Resource: "fds", Holder: "wedged", Units: 2, QuantumNS: int64(time.Hour),
	})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	recs := srv.Shutdown(sctx)
	if len(recs) != 1 || recs[0].Holder != "wedged" || recs[0].LeaseID != wedged.LeaseID {
		t.Fatalf("drain records = %+v; want exactly the wedged lease", recs)
	}
	st, err := c.Stats(ctx, "fds")
	if err != nil {
		t.Fatalf("stats after shutdown: %v", err)
	}
	if st.Outstanding != 0 || st.Revokes != 1 {
		t.Fatalf("post-shutdown stats = %+v; want all units home via 1 revoke", st)
	}
}
