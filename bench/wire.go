package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// wireMarks are the httptrace instants inside one round trip, as
// nanoseconds since the recorder's epoch. net/http reports the last
// two from its connection goroutines, hence the atomics.
type wireMarks struct {
	GetConn   atomic.Int64
	GotConn   atomic.Int64
	Wrote     atomic.Int64
	FirstByte atomic.Int64
}

// MarshalJSON writes the marks as plain numbers.
func (m *wireMarks) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		GetConn   int64 `json:"get_conn_ns"`
		GotConn   int64 `json:"got_conn_ns"`
		Wrote     int64 `json:"wrote_ns"`
		FirstByte int64 `json:"first_byte_ns"`
	}{m.GetConn.Load(), m.GotConn.Load(), m.Wrote.Load(), m.FirstByte.Load()})
}

// conn is one connection to the daemon: its own transport capped at a
// single TCP connection, so "two connections" means two sockets. dials
// counts the sockets it opened; after warm-up it must stay at one.
type conn struct {
	tr    *http.Transport
	hc    *http.Client
	dials atomic.Int64

	// Filled by the traced transport only.
	roundTrips atomic.Int64
	reqBytes   atomic.Int64
	respBytes  atomic.Int64
}

// newConn returns a connection; with a recorder its round trips are
// recorded as wire.RoundTrip spans and counted.
func newConn(rec *recorder) *conn {
	c := &conn{}
	var d net.Dialer
	c.tr = &http.Transport{
		MaxConnsPerHost: 1,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	c.hc = &http.Client{Transport: c.tr}
	if rec != nil {
		c.hc.Transport = &tracedTransport{c: c, rec: rec}
	}
	return c
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// tracedTransport records a wire.RoundTrip span, with httptrace marks,
// around the real transport, and counts round trips and JSON body
// bytes. It is installed only on the traced run.
type tracedTransport struct {
	c   *conn
	rec *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := t.rec
	id := rec.begin("wire.RoundTrip")
	m := &wireMarks{}
	rec.spans[id].Marks = m
	since := func() int64 { return int64(time.Since(rec.epoch)) }
	ct := &httptrace.ClientTrace{
		GetConn:              func(string) { m.GetConn.Store(since()) },
		GotConn:              func(httptrace.GotConnInfo) { m.GotConn.Store(since()) },
		WroteRequest:         func(httptrace.WroteRequestInfo) { m.Wrote.Store(since()) },
		GotFirstResponseByte: func() { m.FirstByte.Store(since()) },
	}
	resp, err := t.c.tr.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), ct)))
	rec.end(id)
	t.c.roundTrips.Add(1)
	if req.ContentLength > 0 {
		t.c.reqBytes.Add(req.ContentLength)
	}
	if err == nil && resp.ContentLength > 0 {
		t.c.respBytes.Add(resp.ContentLength)
	}
	return resp, err
}
