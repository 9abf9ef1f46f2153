package gridd

// White-box tests of what the daemon owns beside the state machine it
// hosts: the monitor's timers and the wire-id tables. (The socket-level
// contract is in gridd_test.go, package gridd_test.)

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// call drives one request through the handler in-process, decoding the
// reply body (a result or an ErrorReply) into out, and returns the
// status.
func call(t *testing.T, h http.Handler, method, path string, in, out any) int {
	t.Helper()
	var body bytes.Buffer
	if in != nil {
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			t.Fatalf("encode %s: %v", path, err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &body))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// A monitor timer's callback can already be blocked on the lock when
// Cancel runs under that lock; time.Timer.Stop cannot recall it, so the
// stopped flag must. (lease.Manager cancels watchdogs this way on every
// release.)
func TestCanceledTimerQueuedOnTheLockDoesNotRun(t *testing.T) {
	m := &monitor{start: time.Now()}
	ran := 0
	m.Lock()
	var timers []*timer
	for i := 0; i < 8; i++ {
		timers = append(timers, m.Schedule(time.Millisecond, func() { ran++ }).(*timer))
	}
	time.Sleep(10 * time.Millisecond) // the callbacks fire and queue on the lock
	queued := 0
	for _, tm := range timers {
		if !tm.t.Stop() {
			queued++
		}
		tm.Cancel()
	}
	m.Unlock()
	if queued == 0 {
		t.Fatal("no callback was queued on the lock: the test proved nothing")
	}
	time.Sleep(10 * time.Millisecond) // let them take the lock and find stopped set
	m.Lock()
	defer m.Unlock()
	if ran != 0 {
		t.Fatalf("%d of %d canceled callbacks ran (%d were queued on the lock)", ran, len(timers), queued)
	}
}

// The restart timer can fire and then wait on the monitor while a
// handler still reads the resource as down. A down reply given then
// must carry no retry hint (0, "none"), not a negative one.
func TestDownReplyAfterOutageEndHintsNoNegative(t *testing.T) {
	srv := NewServer(Config{Resources: []ResourceConfig{{
		Name: "r", Capacity: 1, RestartDelay: time.Millisecond,
	}}})
	r := srv.res["r"]
	srv.mon.Lock()
	r.crash()
	r.restart.Cancel() // the restart is held off, as if queued on the lock
	srv.mon.Unlock()
	time.Sleep(5 * time.Millisecond) // the outage's end is now past

	var er ErrorReply
	code := call(t, srv.Handler(), "POST", "/acquire", AcquireRequest{Resource: "r", Holder: "h", Units: 1}, &er)
	if er.Code != CodeDown {
		t.Fatalf("reply %+v (HTTP %d), want code %q", er, code, CodeDown)
	}
	if er.RetryAfterNS < 0 {
		t.Fatalf("retry_after_ns = %d: a negative hint", er.RetryAfterNS)
	}
}

// Every way a tenure or a booking can end must also take its row out
// of the daemon's tables: by request (release, cancel), by timer
// (watchdog, window end), and by crash.
func TestTablesEmptyAfterEveryKindOfEnd(t *testing.T) {
	const n = 5
	srv := NewServer(Config{Resources: []ResourceConfig{{
		Name: "r", Capacity: 4 * n, Quantum: 5 * time.Millisecond,
		CrashHolder: "schedd", RestartDelay: 5 * time.Millisecond,
	}}})
	h := srv.Handler()
	r := srv.res["r"]
	ok := func(what string, code int) {
		t.Helper()
		if code != http.StatusOK {
			t.Fatalf("%s answered %d", what, code)
		}
	}
	reserve := func(start, tenure time.Duration) (rr ReserveReply) {
		t.Helper()
		ok("reserve", call(t, h, "POST", "/reserve", ReserveRequest{
			Resource: "r", Holder: "a", Units: 1, StartNS: int64(start), TenureNS: int64(tenure),
		}, &rr))
		return rr
	}
	for i := 0; i < n; i++ {
		var l LeaseReply
		rr := reserve(0, time.Hour)
		ok("claim", call(t, h, "POST", "/claim", ClaimRequest{Resource: "r", BookingID: rr.BookingID}, &l))
		ok("release", call(t, h, "POST", "/release", ReleaseRequest{Resource: "r", LeaseID: l.LeaseID, Epoch: l.Epoch}, nil))

		rr = reserve(time.Hour, time.Hour)
		ok("cancel", call(t, h, "POST", "/cancel", CancelRequest{Resource: "r", BookingID: rr.BookingID}, nil))

		reserve(0, 5*time.Millisecond) // never claimed: lapses

		// Never released: the 5 ms watchdog reclaims it.
		ok("acquire", call(t, h, "POST", "/acquire", AcquireRequest{Resource: "r", Holder: "wedged", Units: 1}, nil))
	}
	tables := func() (leases, bookings, parked int) {
		srv.mon.Lock()
		defer srv.mon.Unlock()
		return len(r.leases), len(r.bookings), len(r.parked)
	}
	settle := func(what string, want func(leases, bookings, parked int) bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for !want(tables()) {
			if time.Now().After(deadline) {
				l, b, p := tables()
				t.Fatalf("timed out waiting for %s: %d leases, %d bookings, %d parked", what, l, b, p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	empty := func(l, b, p int) bool { return l+b+p == 0 }
	settle("watchdogs and window ends", empty)

	// One crash: a long tenure holds everything, a waiter parks behind
	// it, and the crash holder's refusal jams the resource.
	ok("acquire", call(t, h, "POST", "/acquire", AcquireRequest{
		Resource: "r", Holder: "long", Units: 4 * n, QuantumNS: int64(time.Hour),
	}, nil))
	parkedCode := make(chan int, 1)
	go func() {
		parkedCode <- call(t, h, "POST", "/acquire", AcquireRequest{
			Resource: "r", Holder: "waits", Units: 1, WaitNS: int64(10 * time.Second),
		}, nil)
	}()
	settle("the waiter to park", func(l, b, p int) bool { return l == 1 && p == 1 })
	if code := call(t, h, "POST", "/acquire", AcquireRequest{Resource: "r", Holder: "schedd", Units: 1}, nil); code != http.StatusConflict {
		t.Fatalf("crash holder's acquire answered %d; want 409", code)
	}
	if code := <-parkedCode; code != http.StatusServiceUnavailable {
		t.Fatalf("parked acquire answered %d after the crash; want 503", code)
	}
	settle("the crash", empty)

	srv.mon.Lock()
	defer srv.mon.Unlock()
	if live, queue, out := r.book.Outstanding(), r.mgr.QueueLen(), r.mgr.Outstanding(); live+queue != 0 || out != 0 {
		t.Fatalf("state machine not empty: %d live bookings, %d queued, %d units outstanding", live, queue, out)
	}
	if r.crashes != 1 || r.mgr.Revokes != n+1 || r.book.Lapses != n {
		t.Fatalf("crashes=%d revokes=%d lapses=%d; want 1, %d, %d", r.crashes, r.mgr.Revokes, r.book.Lapses, n+1, n)
	}
}
