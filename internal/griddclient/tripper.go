package griddclient

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// Injection sites consulted by FaultTripper (see core.Injector): the two
// directions of the HTTP boundary, so a chaos.Plan aimed at them is the
// socket-level twin of one aimed at condor.InjectNetReq/InjectNetRep.
const (
	// InjectReq covers the request direction (client -> daemon): a Drop
	// means the request is never sent, a Dup that it is sent twice (the
	// client sees only the second reply), a Delay that it waits that
	// long on the wall clock before sending.
	InjectReq = "gridd/net/req"
	// InjectRep covers the reply direction (daemon -> client): a Drop
	// discards the reply after the daemon applied the request, so the
	// client sees core.ErrLost while the daemon's state moved — the
	// phantom-grant / lost-release hazard fencing exists to contain.
	InjectRep = "gridd/net/rep"
)

// FaultTripper injects Inj's channel faults around Base (nil Base means
// http.DefaultTransport). Install one tripper as the transport of every
// client that shares the injector:
//
//	c.HTTP = &http.Client{Transport: &FaultTripper{Inj: plan.Arm(eng, chaos.Targets{})}}
//
// RoundTrip runs on the caller's goroutine outside any engine monitor
// (a live process makes wire calls under Proc.Blocking), and an injector
// such as chaos.Armed is not safe for concurrent use, so the tripper
// serializes every Inject under its own mutex.
type FaultTripper struct {
	Base http.RoundTripper
	Inj  core.Injector

	mu sync.Mutex
}

func (t *FaultTripper) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *FaultTripper) inject(site string) core.Fault {
	t.mu.Lock()
	defer t.mu.Unlock()
	return core.InjectAt(t.Inj, site)
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.inject(InjectReq)
	if f.Delay > 0 {
		select {
		case <-time.After(f.Delay):
		case <-req.Context().Done():
			closeBody(req)
			return nil, req.Context().Err()
		}
	}
	if f.Drop {
		closeBody(req)
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, core.ErrLost)
	}
	if f.Dup {
		// Apply the operation twice server-side and hand the client
		// only the second reply. Requires a replayable body (the JSON
		// client always sets GetBody via bytes.Reader). A first send
		// that fails on the wire still leaves the clone to apply the
		// operation once.
		if clone := cloneRequest(req); clone != nil {
			if first, err := t.base().RoundTrip(req); err == nil {
				discard(first)
			}
			req = clone
		}
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.inject(InjectRep).Drop {
		discard(resp)
		return nil, fmt.Errorf("%s %s: reply %w", req.Method, req.URL.Path, core.ErrLost)
	}
	return resp, nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
}

func discard(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// cloneRequest builds a re-sendable copy, or nil if the body cannot be
// replayed.
func cloneRequest(req *http.Request) *http.Request {
	clone := req.Clone(req.Context())
	if req.Body == nil || req.Body == http.NoBody {
		return clone
	}
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	clone.Body = body
	return clone
}
