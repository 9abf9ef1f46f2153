// Package griddclient is the wire client for the gridd daemon
// (internal/gridd): plain HTTP/JSON calls that rebuild the repo's
// typed errors from ErrorReply codes, so errors.Is(err, core.ErrStale),
// errors.Is(err, lease.ErrNotOpen) and core.Rejection(err) work across
// the socket exactly as they do against an in-process substrate.
//
// Time: a daemon across a socket runs on the wall clock; a client
// driving it from a compressed-time live engine must convert virtual
// durations with ToReal before they cross the socket (and scale
// observed real waits back with ToVirtual). Blocking: every method here
// performs a round-trip, a real socket one unless the transport is a
// daemon in the same process (gridd.Server is an http.RoundTripper), so
// code running under the live engine's monitor lock must wrap calls in
// (*live.Engine).Blocking, as Carrier does through its Host.
//
// This package is the daemon's one client. The discipline stays in
// the caller: the gridd backend puts condor's FD table on a Carrier and
// runs the scenario code it runs everywhere, and socket-level chaos is
// an ordinary chaos.Plan aimed at InjectReq/InjectRep, consulted by
// FaultTripper.
package griddclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/lease"
)

// ErrBusy is the immediate-mode verdict: no free units now (the wire
// EMFILE). Matched through *BusyError.
var ErrBusy = errors.New("gridd: busy")

// ErrUnavailable marks a retriable outage: the daemon is draining.
// Matched through *UnavailableError.
var ErrUnavailable = errors.New("gridd: unavailable")

// ErrUnknown marks a missing resource, lease, or booking.
var ErrUnknown = errors.New("gridd: no such entity")

// BusyError carries the shortfall of a busy verdict.
type BusyError struct {
	Resource  string
	Shortfall int64
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("%s: %v (%d unit(s) short)", e.Resource, ErrBusy, e.Shortfall)
}

// Is makes errors.Is(err, ErrBusy) match.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// UnavailableError is a typed retriable outage: Reason is "draining".
type UnavailableError struct {
	Resource string
	Reason   string
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("%s: %v (%s)", e.Resource, ErrUnavailable, e.Reason)
}

// Is makes errors.Is(err, ErrUnavailable) match.
func (e *UnavailableError) Is(target error) bool { return target == ErrUnavailable }

// Client speaks the gridd wire protocol to one daemon.
type Client struct {
	// Base is the daemon's URL, e.g. "http://127.0.0.1:9123".
	Base string
	// HTTP is the transport; nil means http.DefaultClient. Install a
	// *FaultTripper here to run the chaos battery.
	HTTP *http.Client
	// Timescale is the driving engine's compression (virtual seconds
	// per real second); <= 0 means 1. Only the ToReal/ToVirtual
	// helpers consult it — wire durations are always real.
	Timescale float64
}

// New returns a client for the daemon at base.
func New(base string, timescale float64) *Client {
	return &Client{Base: base, Timescale: timescale}
}

// ToReal converts a virtual duration to the real duration the daemon
// should enforce (minimum 1ns, matching live.Engine.toReal).
func (c *Client) ToReal(d time.Duration) time.Duration {
	ts := c.Timescale
	if ts <= 0 {
		ts = 1
	}
	if d <= 0 {
		return 0
	}
	rd := time.Duration(float64(d) / ts)
	if rd <= 0 {
		rd = 1
	}
	return rd
}

// ToVirtual scales an observed real duration back into virtual time.
func (c *Client) ToVirtual(d time.Duration) time.Duration {
	ts := c.Timescale
	if ts <= 0 {
		ts = 1
	}
	return time.Duration(float64(d) * ts)
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do runs one round-trip: JSON-encode in (nil = no body), decode a 2xx
// into out, rebuild a typed error from a non-2xx ErrorReply. resource
// names the resource for error construction.
func (c *Client) do(ctx context.Context, method, path, resource string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("gridd: encode %s: %w", path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return fmt.Errorf("gridd: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return fmt.Errorf("gridd: %s %s: %w", method, path, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var er gridd.ErrorReply
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			return fmt.Errorf("gridd: %s %s: HTTP %d", method, path, resp.StatusCode)
		}
		return wireError(er, resource)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("gridd: decode %s: %w", path, err)
	}
	return nil
}

// wireError rebuilds the typed error an ErrorReply encodes.
func wireError(er gridd.ErrorReply, resource string) error {
	switch er.Code {
	case gridd.CodeStale:
		return core.Stale(resource, er.Epoch, er.Fence)
	case gridd.CodeRejected:
		return core.Rejected(resource, er.Shortfall)
	case gridd.CodeBusy:
		return &BusyError{Resource: resource, Shortfall: er.Shortfall}
	case gridd.CodeDraining:
		return &UnavailableError{Resource: resource, Reason: "draining"}
	case gridd.CodeLapsed:
		return fmt.Errorf("%s: %w", resource, lease.ErrLapsed)
	case gridd.CodeEarly:
		return fmt.Errorf("%s: %w", resource, lease.ErrNotOpen)
	case gridd.CodeUnknown:
		return fmt.Errorf("%s: %w: %s", resource, ErrUnknown, er.Message)
	default:
		return fmt.Errorf("gridd: %s: %s", er.Code, er.Message)
	}
}

// Lease is a granted tenure plus the handle to retire or extend it.
type Lease struct {
	gridd.LeaseReply
	c *Client
}

// Probe is the carrier-sense read: one cheap GET.
func (c *Client) Probe(ctx context.Context, name string) (gridd.ProbeReply, error) {
	var pr gridd.ProbeReply
	err := c.do(ctx, http.MethodGet, "/probe/"+name, name, nil, &pr)
	return pr, err
}

// Acquire leases units; see gridd.AcquireRequest for the wait regimes.
func (c *Client) Acquire(ctx context.Context, req gridd.AcquireRequest) (*Lease, error) {
	var lr gridd.LeaseReply
	if err := c.do(ctx, http.MethodPost, "/acquire", req.Resource, req, &lr); err != nil {
		return nil, err
	}
	return &Lease{LeaseReply: lr, c: c}, nil
}

// Release retires the lease. A fenced daemon answers a late or
// duplicated release with core.ErrStale.
func (l *Lease) Release(ctx context.Context) error {
	return l.c.do(ctx, http.MethodPost, "/release", l.Resource, gridd.ReleaseRequest{
		Resource: l.Resource, LeaseID: l.LeaseID, Epoch: l.Epoch, Units: l.Units,
	}, nil)
}

// Renew extends the tenure by the real duration d (0 = one default
// quantum) and reports the new daemon-clock deadline.
func (l *Lease) Renew(ctx context.Context, d time.Duration) (gridd.RenewReply, error) {
	var rr gridd.RenewReply
	err := l.c.do(ctx, http.MethodPost, "/renew", l.Resource, gridd.RenewRequest{
		Resource: l.Resource, LeaseID: l.LeaseID, Epoch: l.Epoch, ForNS: int64(d),
	}, &rr)
	if err == nil {
		l.DeadlineNS = rr.DeadlineNS
	}
	return rr, err
}

// Reserve books a window against the resource's admission book.
func (c *Client) Reserve(ctx context.Context, req gridd.ReserveRequest) (gridd.ReserveReply, error) {
	var rr gridd.ReserveReply
	err := c.do(ctx, http.MethodPost, "/reserve", req.Resource, req, &rr)
	return rr, err
}

// Claim converts a booking into a window-fenced lease.
func (c *Client) Claim(ctx context.Context, req gridd.ClaimRequest) (*Lease, error) {
	var lr gridd.LeaseReply
	if err := c.do(ctx, http.MethodPost, "/claim", req.Resource, req, &lr); err != nil {
		return nil, err
	}
	return &Lease{LeaseReply: lr, c: c}, nil
}

// Cancel forfeits an unclaimed booking.
func (c *Client) Cancel(ctx context.Context, req gridd.CancelRequest) error {
	return c.do(ctx, http.MethodPost, "/cancel", req.Resource, req, nil)
}

// CreateResource creates (or resizes) a resource on the daemon.
func (c *Client) CreateResource(ctx context.Context, req gridd.CreateRequest) error {
	return c.do(ctx, http.MethodPost, "/resources", req.Name, req, nil)
}

// Stats reads the resource's full accounting.
func (c *Client) Stats(ctx context.Context, name string) (gridd.StatsReply, error) {
	var st gridd.StatsReply
	err := c.do(ctx, http.MethodGet, "/stats/"+name, name, nil, &st)
	return st, err
}

// Healthz reads the daemon's liveness report.
func (c *Client) Healthz(ctx context.Context) (map[string]any, error) {
	var h map[string]any
	err := c.do(ctx, http.MethodGet, "/healthz", "", nil, &h)
	return h, err
}
