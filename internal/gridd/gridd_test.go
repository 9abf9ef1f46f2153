package gridd_test

// Socket-level conformance for the gridd daemon: every test talks to a
// real httptest listener through internal/griddclient, so what is
// proven here is the wire contract — typed errors rebuilt from JSON,
// fencing across the socket, watchdog revocation on the daemon's wall
// clock — not the in-process state machine alone.

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/lease"
)

// newDaemon spins up an in-process daemon hosting rcs and a client
// pointed at it.
func newDaemon(t *testing.T, rcs ...gridd.ResourceConfig) (*gridd.Server, *griddclient.Client) {
	t.Helper()
	srv := gridd.NewServer(gridd.Config{Resources: rcs})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, griddclient.New(hs.URL, 1)
}

// waitFor polls cond until true or the deadline, failing with what.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestProbeAcquireRelease(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	ctx := ctxT(t)

	pr, err := c.Probe(ctx, "fds")
	if err != nil || pr.Free != 2 || pr.InUse != 0 || pr.Queue != 0 {
		t.Fatalf("fresh probe = %+v, %v; want free 2, nothing queued", pr, err)
	}
	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if lease.Epoch == 0 || lease.GrantSeq == 0 {
		t.Fatalf("lease missing fencing epoch or grant seq: %+v", lease.LeaseReply)
	}
	if pr, _ = c.Probe(ctx, "fds"); pr.InUse != 1 || pr.Free != 1 {
		t.Fatalf("probe after acquire = %+v; want in_use 1", pr)
	}
	// EMFILE: a shortfall with nobody queued is an immediate verdict.
	var be *griddclient.BusyError
	if _, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "b", Units: 2}); !errors.As(err, &be) || be.Shortfall != 1 {
		t.Fatalf("immediate acquire of 2 with 1 free = %v; want busy, 1 short", err)
	}
	if err := lease.Release(ctx); err != nil {
		t.Fatalf("release: %v", err)
	}
	if pr, _ = c.Probe(ctx, "fds"); pr.InUse != 0 {
		t.Fatalf("probe after release = %+v; want in_use 0", pr)
	}
	if _, err := c.Probe(ctx, "nope"); !errors.Is(err, griddclient.ErrUnknown) {
		t.Fatalf("probe of unknown resource = %v; want ErrUnknown", err)
	}
}

func TestFencedDuplicateReleaseIsStale(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	ctx := ctxT(t)

	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := lease.Release(ctx); err != nil {
		t.Fatalf("first release: %v", err)
	}
	err = lease.Release(ctx)
	if !errors.Is(err, core.ErrStale) {
		t.Fatalf("duplicate release = %v; want core.ErrStale across the socket", err)
	}
	se := core.Staleness(err)
	if se == nil || se.Fence < lease.Epoch {
		t.Fatalf("stale detail = %+v; want fence >= epoch %d", se, lease.Epoch)
	}
	st, _ := c.Stats(ctx, "fds")
	if st.Stales != 1 || st.DoubleFrees != 0 || st.InUse != 0 {
		t.Fatalf("stats after dup release = %+v; want 1 stale, 0 double-frees", st)
	}
}

func TestWatchdogRevokesOverstayedTenure(t *testing.T) {
	_, c := newDaemon(t,
		gridd.ResourceConfig{Name: "fds", Capacity: 1, Quantum: 40 * time.Millisecond},
		gridd.ResourceConfig{Name: "hour", Capacity: 1, Quantum: time.Hour},
	)
	ctx := ctxT(t)

	// A tenure the acquire asked for overrides the resource's default.
	if _, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "hour", Holder: "wedged", Units: 1, QuantumNS: int64(40 * time.Millisecond)}); err != nil {
		t.Fatalf("acquire with its own quantum: %v", err)
	}
	waitFor(t, 2*time.Second, "revocation of the requested tenure", func() bool {
		st, _ := c.Stats(ctx, "hour")
		return st.Revokes == 1 && st.Outstanding == 0
	})

	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "wedged", Units: 1})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	waitFor(t, 2*time.Second, "watchdog revocation", func() bool {
		st, _ := c.Stats(ctx, "fds")
		return st.Revokes == 1 && st.Outstanding == 0
	})
	if _, err := lease.Renew(ctx, 0); !errors.Is(err, core.ErrStale) {
		t.Fatalf("renew after revocation = %v; want stale", err)
	}
	if err := lease.Release(ctx); !errors.Is(err, core.ErrStale) {
		t.Fatalf("release after revocation = %v; want stale", err)
	}
	// The unit is home: a new tenant gets it immediately.
	if _, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "next", Units: 1}); err != nil {
		t.Fatalf("acquire after revocation: %v", err)
	}
}

func TestRenewExtendsTenure(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 1, Quantum: 80 * time.Millisecond})
	ctx := ctxT(t)

	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	// Renew past several default tenures; the lease must stay live.
	for i := 0; i < 5; i++ {
		time.Sleep(30 * time.Millisecond)
		if _, err := lease.Renew(ctx, 0); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if err := lease.Release(ctx); err != nil {
		t.Fatalf("release after renews: %v", err)
	}
	st, _ := c.Stats(ctx, "fds")
	if st.Revokes != 0 {
		t.Fatalf("revokes = %d after dutiful renewal; want 0", st.Revokes)
	}
}

func TestUnfencedDoubleFreeAdmitsPhantoms(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2, Unfenced: true})
	ctx := ctxT(t)
	acq := func(h string) *griddclient.Lease {
		t.Helper()
		l, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: h, Units: 1})
		if err != nil {
			t.Fatalf("acquire %s: %v", h, err)
		}
		return l
	}

	a, b := acq("a"), acq("b")
	if err := a.Release(ctx); err != nil {
		t.Fatalf("release: %v", err)
	}
	// The duplicated release: an unfenced daemon applies the replay and
	// double-frees, corrupting its bookkeeping below ground truth.
	if err := a.Release(ctx); err != nil {
		t.Fatalf("unfenced daemon rejected the replay: %v", err)
	}
	// Bookkeeping now says 0 in use while b's grant is live: two more
	// admissions fit on paper, and the second is a phantom.
	acq("c")
	acq("d")
	st, _ := c.Stats(ctx, "fds")
	if st.DoubleFrees != 1 {
		t.Fatalf("double_frees = %d; want 1", st.DoubleFrees)
	}
	if st.Phantoms < 1 || st.MaxOutstanding <= st.Capacity {
		t.Fatalf("stats = %+v; want phantom grants past capacity", st)
	}
	_ = b
}

func TestEMFILEVerdictMayNotJumpTheQueue(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	ctx := ctxT(t)

	seedLease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("seed acquire: %v", err)
	}
	// b wants 2: doesn't fit, parks.
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, gridd.AcquireRequest{
			Resource: "fds", Holder: "b", Units: 2, WaitNS: int64(2 * time.Second),
		})
		done <- err
	}()
	waitFor(t, 2*time.Second, "b to park", func() bool {
		pr, _ := c.Probe(ctx, "fds")
		return pr.Queue == 1
	})
	// c wants 1: a unit is free, but the queue is not empty — the
	// immediate verdict must be busy, not a queue jump.
	_, err = c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "c", Units: 1})
	var be *griddclient.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("queue-jump attempt = %v; want BusyError", err)
	}
	if !errors.Is(err, griddclient.ErrBusy) {
		t.Fatalf("BusyError does not match ErrBusy")
	}
	// Freeing a's unit lets the parked head (which needs both) in.
	if err := seedLease.Release(ctx); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked b never granted: %v", err)
	}
}

func TestFIFOGrantOrderObservableOnTheWire(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 1})
	ctx := ctxT(t)

	hold, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "hold", Units: 1})
	if err != nil {
		t.Fatalf("seed acquire: %v", err)
	}
	const parked = 3
	leases := make(chan *griddclient.Lease, parked)
	for i := 0; i < parked; i++ {
		go func() {
			l, err := c.Acquire(ctx, gridd.AcquireRequest{
				Resource: "fds", Holder: "w", Units: 1, WaitNS: int64(5 * time.Second),
			})
			if err == nil {
				leases <- l
			}
		}()
		// Stagger so the park order is deterministic.
		waitFor(t, 2*time.Second, "waiter to park", func() bool {
			pr, _ := c.Probe(ctx, "fds")
			return pr.Queue == i+1
		})
	}
	if err := hold.Release(ctx); err != nil {
		t.Fatalf("release: %v", err)
	}
	var got []*griddclient.Lease
	for i := 0; i < parked; i++ {
		select {
		case l := <-leases:
			got = append(got, l)
			_ = l.Release(ctx)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d parked acquires granted", i, parked)
		}
		// Each grant frees the unit for the next release above.
	}
	// The wire-visible FIFO proof: grant order must equal park order.
	for i := 1; i < len(got); i++ {
		if got[i].GrantSeq <= got[i-1].GrantSeq || got[i].WaiterSeq <= got[i-1].WaiterSeq {
			t.Fatalf("grant %d out of order: seq %d/%d after %d/%d",
				i, got[i].GrantSeq, got[i].WaiterSeq, got[i-1].GrantSeq, got[i-1].WaiterSeq)
		}
	}
}

func TestReserveClaimCancelLapse(t *testing.T) {
	_, c := newDaemon(t,
		gridd.ResourceConfig{Name: "yyy", Capacity: 2},
		gridd.ResourceConfig{Name: "one", Capacity: 1},
	)
	ctx := ctxT(t)

	// Admit a window, then over-book the same window: typed rejection
	// with the shortfall, across the socket.
	rr, err := c.Reserve(ctx, gridd.ReserveRequest{
		Resource: "yyy", Holder: "a", Units: 2, TenureNS: int64(50 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	_, err = c.Reserve(ctx, gridd.ReserveRequest{
		Resource: "yyy", Holder: "b", Units: 1, TenureNS: int64(30 * time.Millisecond),
	})
	rej := core.Rejection(err)
	if rej == nil || rej.Shortfall != 1 {
		t.Fatalf("over-book = %v; want RejectedError shortfall 1", err)
	}

	// Claim converts the booking into a lease fenced at window end.
	claimed, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "yyy", BookingID: rr.BookingID})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if claimed.DeadlineNS != rr.EndNS {
		t.Fatalf("claimed lease deadline %d; want the window's end %d", claimed.DeadlineNS, rr.EndNS)
	}
	if _, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "yyy", BookingID: rr.BookingID}); err == nil {
		t.Fatalf("double claim succeeded")
	}
	if err := claimed.Release(ctx); err != nil {
		t.Fatalf("release claimed lease: %v", err)
	}

	// Releasing a claim hands the rest of its window back to the book:
	// on a capacity-1 book the same hour is bookable again at once.
	hour := gridd.ReserveRequest{Resource: "one", Holder: "a", Units: 1, TenureNS: int64(time.Hour)}
	first, err := c.Reserve(ctx, hour)
	if err != nil {
		t.Fatalf("hour reserve: %v", err)
	}
	held, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "one", BookingID: first.BookingID})
	if err != nil {
		t.Fatalf("hour claim: %v", err)
	}
	if _, err := c.Reserve(ctx, hour); core.Rejection(err) == nil {
		t.Fatalf("re-reserve while claimed = %v; want RejectedError", err)
	}
	if err := held.Release(ctx); err != nil {
		t.Fatalf("hour release: %v", err)
	}
	if _, err := c.Reserve(ctx, hour); err != nil {
		t.Fatalf("re-reserve after release = %v; want admitted", err)
	}

	// A future window cannot be claimed early...
	fut, err := c.Reserve(ctx, gridd.ReserveRequest{
		Resource: "yyy", Holder: "a", Units: 1,
		StartNS: int64(time.Hour), TenureNS: int64(time.Hour),
	})
	if err != nil {
		t.Fatalf("future reserve: %v", err)
	}
	if _, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "yyy", BookingID: fut.BookingID}); !errors.Is(err, lease.ErrNotOpen) {
		t.Fatalf("early claim = %v; want lease.ErrNotOpen", err)
	}
	// ...but it can be forfeited, refunding the window.
	if err := c.Cancel(ctx, gridd.CancelRequest{Resource: "yyy", BookingID: fut.BookingID}); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// An id the book issued and has since retired is lapsed, for cancel
	// and claim alike; an id it never issued is unknown.
	if err := c.Cancel(ctx, gridd.CancelRequest{Resource: "yyy", BookingID: fut.BookingID}); !errors.Is(err, lease.ErrLapsed) {
		t.Fatalf("cancel of a canceled booking = %v; want lease.ErrLapsed", err)
	}
	if _, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "yyy", BookingID: rr.BookingID}); !errors.Is(err, lease.ErrLapsed) {
		t.Fatalf("claim of a released booking = %v; want lease.ErrLapsed", err)
	}
	if _, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "yyy", BookingID: 999}); !errors.Is(err, griddclient.ErrUnknown) {
		t.Fatalf("claim of a never-issued booking = %v; want ErrUnknown", err)
	}

	// A lapsed window is gone: claim after end is the typed lapse. (a's
	// claimed 50ms booking was released above, so it no longer occupies
	// the book; the 60ms start only keeps this window clear of it.)
	short, err := c.Reserve(ctx, gridd.ReserveRequest{
		Resource: "yyy", Holder: "a", Units: 1,
		StartNS: int64(60 * time.Millisecond), TenureNS: int64(20 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("short reserve: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "yyy", BookingID: short.BookingID}); !errors.Is(err, lease.ErrLapsed) {
		t.Fatalf("lapsed claim = %v; want lease.ErrLapsed", err)
	}
	st, _ := c.Stats(ctx, "yyy")
	if st.Admits != 3 || st.BookRejects != 1 || st.Lapses != 1 {
		t.Fatalf("book stats = %+v; want 3 admits, 1 reject, 1 lapse", st)
	}
}

// A renewal of a claimed lease stops at the booked window's end, and
// the watchdog revokes the claim there — not one renewal later.
func TestRenewOfClaimStopsAtWindowEnd(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "yyy", Capacity: 1})
	ctx := ctxT(t)

	rr, err := c.Reserve(ctx, gridd.ReserveRequest{
		Resource: "yyy", Holder: "a", Units: 1, TenureNS: int64(50 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	lease, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "yyy", BookingID: rr.BookingID})
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	rn, err := lease.Renew(ctx, time.Second)
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	if rn.DeadlineNS == 0 || rn.DeadlineNS > rr.EndNS {
		t.Fatalf("renewed deadline %d; want (0, window end %d]", rn.DeadlineNS, rr.EndNS)
	}
	// Well inside the second the renewal asked for.
	waitFor(t, 500*time.Millisecond, "revocation at the window end", func() bool {
		st, _ := c.Stats(ctx, "yyy")
		return st.Revokes == 1 && st.Outstanding == 0
	})
}

// Units come straight off the socket: a request near MaxInt64 must be
// refused like any other that does not fit, not wrapped negative by the
// admission sum and granted.
func TestHugeAcquireIsBusyNotWrapped(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	ctx := ctxT(t)

	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	_, err = c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "b", Units: math.MaxInt64})
	var be *griddclient.BusyError
	if !errors.As(err, &be) || be.Shortfall != math.MaxInt64-1 {
		t.Fatalf("acquire of MaxInt64 units = %v; want BusyError short by MaxInt64-1", err)
	}
	if err := lease.Release(ctx); err != nil {
		t.Fatalf("release: %v", err)
	}
	st, _ := c.Stats(ctx, "fds")
	if st.InUse != 0 || st.Outstanding != 0 || st.Grants != st.Releases+st.Revokes || st.Grants != 1 {
		t.Fatalf("stats after the huge request = %+v; want one grant, returned", st)
	}
}

// A body past the daemon's read limit is a bad request that touches
// nothing.
func TestOversizedBodyIsRefused(t *testing.T) {
	srv := gridd.NewServer(gridd.Config{Resources: []gridd.ResourceConfig{{Name: "fds", Capacity: 2}}})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := griddclient.New(hs.URL, 1)
	ctx := ctxT(t)

	before, _ := c.Stats(ctx, "fds")
	body := `{"resource":"fds","holder":"` + strings.Repeat("a", 1<<20) + `","units":1}`
	resp, err := http.Post(hs.URL+"/acquire", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /acquire: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1 MiB body answered %d; want 400", resp.StatusCode)
	}
	after, _ := c.Stats(ctx, "fds")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("stats moved: %+v -> %+v", before, after)
	}
}

// A client that goes away while parked leaves nothing behind: the
// queue forgets it, the waiter behind it is the one the next release
// grants, the abandonment is counted, and its handler goroutine ends.
func TestParkedWaiterDisconnects(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 1})
	// A transport of its own, so that closing its idle connections at
	// the end leaves only what the test leaked.
	tr := &http.Transport{}
	c.HTTP = &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()
	ctx := ctxT(t)
	queue := func(n int) func() bool {
		return func() bool {
			pr, _ := c.Probe(ctx, "fds")
			return pr.Queue == n
		}
	}

	hold, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "hold", Units: 1})
	if err != nil {
		t.Fatalf("seed acquire: %v", err)
	}

	park := func(ctx context.Context, holder string) <-chan error {
		done := make(chan error, 1)
		go func() {
			l, err := c.Acquire(ctx, gridd.AcquireRequest{
				Resource: "fds", Holder: holder, Units: 1, WaitNS: int64(10 * time.Second),
			})
			if err == nil {
				err = l.Release(context.Background())
			}
			done <- err
		}()
		return done
	}
	gone, hangUp := context.WithCancel(ctx)
	first := park(gone, "vanishes")
	waitFor(t, 2*time.Second, "first waiter to park", queue(1))
	second := park(ctx, "stays")
	waitFor(t, 2*time.Second, "second waiter to park", queue(2))

	hangUp()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned acquire = %v; want context.Canceled", err)
	}
	waitFor(t, 2*time.Second, "the queue to forget the vanished waiter", queue(1))

	if err := hold.Release(ctx); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("waiter behind the vanished one: %v", err)
	}
	st, _ := c.Stats(ctx, "fds")
	if st.Timeouts != 1 || st.Outstanding != 0 || st.Grants != 2 {
		t.Fatalf("stats = %+v; want 1 timeout, 2 grants, nothing outstanding", st)
	}
	tr.CloseIdleConnections()
	waitFor(t, 2*time.Second, "goroutines to return to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// One release can admit two waiters in a single pump; the two woken
// handlers then race for the daemon's lock. GrantSeq is stamped by the
// pump, so the FIFO proof holds whichever handler wins.
func TestOnePumpTwoGrantsKeepFIFO(t *testing.T) {
	_, c := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	ctx := ctxT(t)

	for round := 0; round < 50; round++ {
		hold, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "hold", Units: 2})
		if err != nil {
			t.Fatalf("round %d: seed acquire: %v", round, err)
		}
		leases := make(chan *griddclient.Lease, 2)
		for i := 0; i < 2; i++ {
			go func() {
				l, err := c.Acquire(ctx, gridd.AcquireRequest{
					Resource: "fds", Holder: "w", Units: 1, WaitNS: int64(5 * time.Second),
				})
				if err != nil {
					t.Errorf("round %d: parked acquire: %v", round, err)
				}
				leases <- l
			}()
			waitFor(t, 2*time.Second, "waiter to park", func() bool {
				pr, _ := c.Probe(ctx, "fds")
				return pr.Queue == i+1
			})
		}
		if err := hold.Release(ctx); err != nil {
			t.Fatalf("round %d: release: %v", round, err)
		}
		a, b := <-leases, <-leases
		if a == nil || b == nil {
			t.FailNow()
		}
		if a.GrantSeq > b.GrantSeq {
			a, b = b, a
		}
		if a.WaiterSeq == 0 || a.WaiterSeq >= b.WaiterSeq {
			t.Fatalf("round %d: grants %d,%d carry queue positions %d,%d; want ascending",
				round, a.GrantSeq, b.GrantSeq, a.WaiterSeq, b.WaiterSeq)
		}
		_ = a.Release(ctx)
		_ = b.Release(ctx)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	// A name given twice resizes the resource and must not register its
	// families a second time (obs panics on that).
	srv := gridd.NewServer(gridd.Config{Resources: []gridd.ResourceConfig{
		{Name: "fds", Capacity: 2},
		{Name: "fds", Capacity: 4},
	}})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := griddclient.New(hs.URL, 1)
	ctx := ctxT(t)

	if _, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 3}); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	text := scrape()
	for _, want := range []string{
		`grid_lease_capacity_units{resource="fds"} 4`,
		`grid_lease_units_inuse{resource="fds"} 3`,
		`grid_lease_outstanding_units{resource="fds"} 3`,
		`grid_lease_grants_total{resource="fds"} 1`,
		"# TYPE grid_lease_grants_total counter",
		`gridd_phantoms_total{resource="fds"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
	// A resource created over the wire after a scrape is in the next one.
	if strings.Contains(text, `resource="disk"`) {
		t.Fatalf("/metrics shows disk before it exists:\n%s", text)
	}
	if err := c.CreateResource(ctx, gridd.CreateRequest{Name: "disk", Capacity: 5}); err != nil {
		t.Fatalf("create: %v", err)
	}
	text = scrape()
	if want := `grid_lease_capacity_units{resource="disk"} 5`; !strings.Contains(text, want) {
		t.Fatalf("/metrics missing %s after create:\n%s", want, text)
	}
	// Nothing happened between these two scrapes, so they agree.
	if again := scrape(); again != text {
		t.Fatalf("idle scrapes differ:\n%s\n---\n%s", text, again)
	}
	h, err := c.Healthz(ctx)
	if err != nil || h["status"] != "ok" {
		t.Fatalf("healthz = %v, %v; want status ok", h, err)
	}
}
