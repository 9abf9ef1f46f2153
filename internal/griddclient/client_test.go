package griddclient_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
)

func newDaemon(t *testing.T, rcs ...gridd.ResourceConfig) string {
	t.Helper()
	hs := httptest.NewServer(gridd.NewServer(gridd.Config{Resources: rcs}).Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// countingTripper records how many requests actually reach the wire.
type countingTripper struct {
	mu sync.Mutex
	n  int
}

func (c *countingTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (c *countingTripper) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// fixed is an injector handing every consult of a site the same fault.
type fixed map[string]core.Fault

func (f fixed) Inject(site string) core.Fault { return f[site] }

// faulty returns a client whose transport injects inj's faults around base.
func faulty(url string, base http.RoundTripper, inj core.Injector) *griddclient.Client {
	c := griddclient.New(url, 1)
	c.HTTP = &http.Client{Transport: &griddclient.FaultTripper{Base: base, Inj: inj}}
	return c
}

func TestTripperDropRequestNeverReachesServer(t *testing.T) {
	url := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	counter := &countingTripper{}
	c := faulty(url, counter, fixed{griddclient.InjectReq: {Drop: true}})

	_, err := c.Acquire(context.Background(), gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if !errors.Is(err, core.ErrLost) {
		t.Fatalf("dropped request = %v; want core.ErrLost", err)
	}
	if counter.count() != 0 {
		t.Fatalf("%d requests reached the wire; want 0", counter.count())
	}
}

func TestTripperDropReplyAppliesServerSide(t *testing.T) {
	url := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 2})
	c := faulty(url, nil, fixed{griddclient.InjectRep: {Drop: true}})

	// The acquire is applied server-side; only the reply is lost. This
	// is the phantom-grant hazard: the client holds nothing it knows
	// of, the server charges a unit until the watchdog reclaims it.
	_, err := c.Acquire(context.Background(), gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if !errors.Is(err, core.ErrLost) {
		t.Fatalf("dropped reply = %v; want core.ErrLost", err)
	}
	clean := griddclient.New(url, 1)
	st, err := clean.Stats(context.Background(), "fds")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Grants != 1 || st.Outstanding != 1 {
		t.Fatalf("stats = %+v; want the orphaned grant applied server-side", st)
	}
}

func TestTripperDuplicateAppliesTwice(t *testing.T) {
	url := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 4})
	c := faulty(url, nil, fixed{griddclient.InjectReq: {Dup: true}})

	lease, err := c.Acquire(context.Background(), gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if err != nil {
		t.Fatalf("acquire over duplicating channel: %v", err)
	}
	clean := griddclient.New(url, 1)
	st, _ := clean.Stats(context.Background(), "fds")
	if st.Grants != 2 || st.Outstanding != 2 {
		t.Fatalf("stats = %+v; want the duplicated acquire applied twice", st)
	}
	// The client saw the second grant; releasing it (over a healed
	// channel — on the faulty one the release would be duplicated too,
	// and the replay correctly fenced as stale) must not free the
	// first: each lease retires exactly once.
	c.HTTP = &http.Client{}
	if err := lease.Release(context.Background()); err != nil {
		t.Fatalf("release: %v", err)
	}
	st, _ = clean.Stats(context.Background(), "fds")
	if st.Outstanding != 1 {
		t.Fatalf("outstanding = %d after releasing the seen grant; want 1 orphan", st.Outstanding)
	}
}

// TestTripperDuplicateThenReplyDrop crosses the two sites: the request
// is sent twice and the reply to the second send is lost, so the daemon
// grants twice while the client holds nothing.
func TestTripperDuplicateThenReplyDrop(t *testing.T) {
	url := newDaemon(t, gridd.ResourceConfig{Name: "fds", Capacity: 4})
	c := faulty(url, nil, fixed{griddclient.InjectReq: {Dup: true}, griddclient.InjectRep: {Drop: true}})

	_, err := c.Acquire(context.Background(), gridd.AcquireRequest{Resource: "fds", Holder: "a", Units: 1})
	if !errors.Is(err, core.ErrLost) {
		t.Fatalf("duplicated acquire with its reply dropped = %v; want core.ErrLost", err)
	}
	st, err := griddclient.New(url, 1).Stats(context.Background(), "fds")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Grants != 2 || st.Outstanding != 2 {
		t.Fatalf("stats = %+v; want both sends granted server-side", st)
	}
}

func TestTimescaleConversion(t *testing.T) {
	c := griddclient.New("http://unused", 1000)
	if got := c.ToReal(time.Second); got != time.Millisecond {
		t.Fatalf("ToReal(1s)@1000 = %v; want 1ms", got)
	}
	if got := c.ToReal(time.Nanosecond); got != time.Nanosecond {
		t.Fatalf("ToReal floor = %v; want 1ns (no busy spins)", got)
	}
	if got := c.ToVirtual(time.Millisecond); got != time.Second {
		t.Fatalf("ToVirtual(1ms)@1000 = %v; want 1s", got)
	}
}
