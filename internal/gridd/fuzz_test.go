package gridd

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzWire throws arbitrary requests at the handler. The host calls
// into a state machine that panics on a broken invariant, so "never
// panics" is collision detection applied to ourselves; and on the
// fenced resources no input may break the ledger: Outstanding <=
// Capacity, no phantom grant, no double free.
//
// Each input meets a fresh daemon already in use — on every resource
// one unit of two is leased (lease id 1) and one more is booked
// (booking id 1) — so ids a request names exist, and is delivered
// twice, the second copy being the duplicate a real channel makes. The
// prelude leaves room for its own booking to be claimed: the book and
// the semaphore are separate ledgers over one capacity (as in
// lease.Book), so a client that both acquires and claims on one
// resource could otherwise pass it by design, not by a fault.
func FuzzWire(f *testing.F) {
	for _, seed := range []struct{ method, path, body string }{
		{"GET", "/probe/fenced", ""},
		{"GET", "/stats/nope", ""},
		{"GET", "/metrics", ""},
		{"GET", "/healthz", ""},
		{"POST", "/acquire", `{"resource":"fenced","holder":"f","units":1}`},
		{"POST", "/acquire", `{"resource":"fenced","holder":"f","units":2,"wait_ns":1000000,"quantum_ns":1000000}`},
		{"POST", "/acquire", `{"resource":"unfenced","holder":"f","units":2}`},
		{"POST", "/acquire", `{"resource":"fenced","holder":"f","units":9223372036854775807}`},
		{"POST", "/release", `{"resource":"fenced","lease_id":1,"epoch":1,"units":1}`},
		{"POST", "/release", `{"resource":"unfenced","lease_id":1,"epoch":1,"units":1}`},
		{"POST", "/renew", `{"resource":"fenced","lease_id":1,"epoch":1,"for_ns":1000000}`},
		{"POST", "/reserve", `{"resource":"fenced","holder":"f","units":1,"start_ns":1000000,"tenure_ns":1000000}`},
		{"POST", "/claim", `{"resource":"fenced","booking_id":1}`},
		{"POST", "/cancel", `{"resource":"unfenced","booking_id":1}`},
		{"POST", "/resources", `{"name":"fenced","capacity":1}`},
		{"POST", "/resources", `{"name":"new","capacity":1,"quantum_ns":1000}`},
	} {
		f.Add(seed.method, seed.path, []byte(seed.body))
	}
	names := []string{"fenced", "unfenced"}
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		srv := NewServer(Config{Resources: []ResourceConfig{
			{Name: "fenced", Capacity: 2, Quantum: time.Hour},
			{Name: "unfenced", Capacity: 2, Unfenced: true},
		}})
		// Shutdown with no budget revokes and forfeits at once, so no
		// watchdog or window-end timer outlives the input.
		done, cancel := context.WithCancel(context.Background())
		cancel()
		defer srv.Shutdown(done)
		h := srv.Handler()
		for _, name := range names {
			if code := call(t, h, "POST", "/acquire", AcquireRequest{Resource: name, Holder: "prelude", Units: 1}, nil); code != http.StatusOK {
				t.Fatalf("prelude acquire on %s answered %d", name, code)
			}
			if code := call(t, h, "POST", "/reserve", ReserveRequest{Resource: name, Holder: "prelude", Units: 1, TenureNS: int64(time.Hour)}, nil); code != http.StatusOK {
				t.Fatalf("prelude reserve on %s answered %d", name, code)
			}
		}
		for copy := 0; copy < 2; copy++ {
			// A few milliseconds of context, so a parked acquire cannot
			// stall the target.
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
			req, err := http.NewRequestWithContext(ctx, method, "http://gridd"+path, bytes.NewReader(body))
			if err != nil {
				cancel()
				t.Skip("not a request net/http would deliver")
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
			cancel()
			if st, _ := srv.Stats("fenced"); st.Outstanding > st.Capacity || st.Phantoms != 0 || st.DoubleFrees != 0 {
				t.Fatalf("fenced: ledger broken after copy %d of %s %s %q: %+v", copy+1, method, path, body, *st)
			}
		}
	})
}
