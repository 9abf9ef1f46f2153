package gridd

// White-box tests of what the daemon owns beside the state machine it
// hosts: its long polls, on the wall clock, and the wire-id tables, on
// a simulator engine (NewServerOn). (The socket-level contract is in
// gridd_test.go, package gridd_test; the monitor's timers are tested in
// internal/live, where the monitor lives.)

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sim"
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

// acquire posts a one-unit acquire of "r" for holder, long-polling for
// wait, to the daemon at base through c, and returns the status and the
// reply decoded as an ErrorReply.
func acquire(t *testing.T, c *http.Client, base, holder string, wait time.Duration) (int, ErrorReply) {
	t.Helper()
	body, err := json.Marshal(AcquireRequest{Resource: "r", Holder: holder, Units: 1, WaitNS: int64(wait)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(base+"/acquire", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorReply
	_ = json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er
}

// Over a socket, a parked acquire whose wait runs out comes back busy,
// and no earlier than its wait after it was sent. (No upper bound: that
// would be a wall-clock band on a shared host.)
func TestParkedAcquireExpiresNoEarlier(t *testing.T) {
	hs := httptest.NewServer(NewServer(Config{Resources: []ResourceConfig{{Name: "r", Capacity: 1}}}).Handler())
	defer hs.Close()
	if code, er := acquire(t, http.DefaultClient, hs.URL, "a", 0); code != http.StatusOK {
		t.Fatalf("acquire of the free unit answered %d %+v", code, er)
	}
	const wait = 3 * time.Millisecond
	sent := time.Now()
	code, er := acquire(t, http.DefaultClient, hs.URL, "b", wait)
	if took := time.Since(sent); took < wait {
		t.Fatalf("the parked acquire came back after %v, before its %v wait ran out", took, wait)
	}
	if code != http.StatusConflict || er.Code != CodeBusy {
		t.Fatalf("the parked acquire answered %d %+v; want busy", code, er)
	}
}

// A duration comes straight off the socket: one past the daemon's
// bound is a bad request, not a deadline that wraps negative.
func TestOverlongDurationsAreBadRequests(t *testing.T) {
	srv := NewServer(Config{Resources: []ResourceConfig{{Name: "r", Capacity: 2}}})
	h := srv.Handler()
	var l LeaseReply
	if code := call(t, h, "POST", "/acquire", AcquireRequest{Resource: "r", Holder: "a", Units: 1}, &l); code != http.StatusOK {
		t.Fatalf("acquire answered %d", code)
	}
	for _, c := range []struct {
		path string
		in   any
	}{
		{"/acquire", AcquireRequest{Resource: "r", Holder: "b", Units: 1, WaitNS: math.MaxInt64}},
		{"/acquire", AcquireRequest{Resource: "r", Holder: "b", Units: 1, QuantumNS: math.MaxInt64}},
		{"/renew", RenewRequest{Resource: "r", LeaseID: l.LeaseID, Epoch: l.Epoch, ForNS: math.MaxInt64}},
		{"/resources", CreateRequest{Name: "s", Capacity: 1, QuantumNS: math.MaxInt64}},
	} {
		var er ErrorReply
		if code := call(t, h, "POST", c.path, c.in, &er); code != http.StatusBadRequest || er.Code != CodeBadRequest {
			t.Errorf("%s %+v answered %d %+v; want 400 %s", c.path, c.in, code, er, CodeBadRequest)
		}
	}
	var st StatsReply
	call(t, h, "GET", "/stats/r", nil, &st)
	if st.Grants != 1 || st.InUse != 1 {
		t.Fatalf("stats %+v; want only the first grant", st)
	}
}

// An acquire for more units than the resource has can never be granted;
// parked, it would hold the FIFO head for its whole wait and every
// acquire behind it would be busy. It is refused at once instead.
func TestOversizedAcquireIsRefusedAtOnce(t *testing.T) {
	srv := NewServer(Config{Resources: []ResourceConfig{{Name: "r", Capacity: 2}}})
	h := srv.Handler()
	const wait = 2 * time.Second
	for _, units := range []int64{3, math.MaxInt64} {
		var er ErrorReply
		start := time.Now()
		code := call(t, h, "POST", "/acquire", AcquireRequest{Resource: "r", Holder: "big", Units: units, WaitNS: int64(wait)}, &er)
		if took := time.Since(start); took > wait/2 {
			t.Fatalf("acquire of %d units parked for %v", units, took)
		}
		if code != http.StatusConflict || er.Code != CodeBusy || er.Shortfall != units-2 {
			t.Fatalf("acquire of %d units answered %d %+v; want busy short by %d", units, code, er, units-2)
		}
	}
	if code := call(t, h, "POST", "/acquire", AcquireRequest{Resource: "r", Holder: "small", Units: 1}, nil); code != http.StatusOK {
		t.Fatalf("acquire of a free unit answered %d", code)
	}
}

// Every way a tenure or a booking can end must also take its row out
// of the daemon's tables: by request (release, cancel) and by timer
// (watchdog, window end).
func TestTablesEmptyAfterEveryKindOfEnd(t *testing.T) {
	const n = 5
	e := sim.New(1)
	srv := NewServerOn(e.RT(), Config{Resources: []ResourceConfig{{
		Name: "r", Capacity: 4 * n, Quantum: 5 * time.Millisecond,
	}}})
	r := srv.res["r"]
	ok := func(what string, er *ErrorReply) {
		t.Helper()
		if er != nil {
			t.Fatalf("%s: %v", what, er)
		}
	}
	reserve := func(start, tenure time.Duration) *ReserveReply {
		t.Helper()
		rr, er := srv.Reserve(ReserveRequest{
			Resource: "r", Holder: "a", Units: 1, StartNS: int64(start), TenureNS: int64(tenure),
		})
		ok("reserve", er)
		return rr
	}
	for i := 0; i < n; i++ {
		l, er := srv.Claim(ClaimRequest{Resource: "r", BookingID: reserve(0, time.Hour).BookingID})
		ok("claim", er)
		_, er = srv.Release(ReleaseRequest{Resource: "r", LeaseID: l.LeaseID, Epoch: l.Epoch})
		ok("release", er)

		_, er = srv.Cancel(CancelRequest{Resource: "r", BookingID: reserve(time.Hour, time.Hour).BookingID})
		ok("cancel", er)

		reserve(0, 5*time.Millisecond) // never claimed: lapses

		// Never released: the 5 ms watchdog reclaims it.
		_, er = srv.Acquire(nil, e.Context(), AcquireRequest{Resource: "r", Holder: "wedged", Units: 1})
		ok("acquire", er)
	}
	empty := func(what string) {
		t.Helper()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if l, b, p := len(r.leases), len(r.bookings), len(r.parked); l+b+p != 0 {
			t.Fatalf("after %s: %d leases, %d bookings, %d parked", what, l, b, p)
		}
	}
	empty("watchdogs and window ends")
	if live, queue, out := r.book.Outstanding(), r.mgr.QueueLen(), r.mgr.Outstanding(); live+queue != 0 || out != 0 {
		t.Fatalf("state machine not empty: %d live bookings, %d queued, %d units outstanding", live, queue, out)
	}
	if r.mgr.Revokes != n || r.book.Lapses != n {
		t.Fatalf("revokes=%d lapses=%d; want %d, %d", r.mgr.Revokes, r.book.Lapses, n, n)
	}
}

// A NewServerOn server has nothing to park a long poll on: through its
// codec (RoundTrip), an acquire that would have to queue is refused at
// once, busy, however long it asked to wait.
func TestLongPollWithoutParkerIsRefusedAtOnce(t *testing.T) {
	e := sim.New(1)
	c := &http.Client{Transport: NewServerOn(e.RT(), Config{Resources: []ResourceConfig{{Name: "r", Capacity: 1}}})}
	if code, er := acquire(t, c, "http://gridd", "a", time.Hour); code != http.StatusOK {
		t.Fatalf("long poll on a free unit answered %d %+v", code, er)
	}
	if code, er := acquire(t, c, "http://gridd", "b", time.Hour); code != http.StatusConflict || er.Code != CodeBusy || er.Shortfall != 1 {
		t.Fatalf("long poll on a taken unit answered %d %+v; want busy short by 1", code, er)
	}
	if e.Elapsed() != 0 {
		t.Fatalf("the refusal took %v of the engine's time", e.Elapsed())
	}
}
