// Package replica simulates the data-transfer scenario of §5: several
// single-threaded servers replicate a read-only file service, and one of
// them is a "black hole" — it accepts connections but never provides
// data or voluntarily disconnects, slowly absorbing every client that
// touches it.
//
// Clients read a 100 MB file (about 10 seconds under ideal conditions).
// The Aloha reader bounds each attempt with a 60-second timeout; the
// Ethernet reader first probes a well-known one-byte flag file under a
// 5-second timeout and defers to another server if the probe fails.
package replica

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/trace"
)

// Config parameterizes the scenario.
type Config struct {
	// FileSize is the payload size in bytes (100 MB in the paper).
	FileSize int64
	// Bandwidth is server transfer speed, bytes/second (10 MB/s → the
	// paper's ~10 s ideal transfer).
	Bandwidth int64
	// FlagSize is the probe file size (1 byte in the paper).
	FlagSize int64
	// ConnectTime is the cost of establishing a connection.
	ConnectTime time.Duration
	// LeaseQuantum bounds how long a client may hold the server's
	// single service lane before renewing. An actively transferring
	// client renews as it goes; a wedged one is revoked and the lane
	// reclaimed. Zero (the default, and the paper's figures) means
	// unlimited tenure.
	LeaseQuantum time.Duration
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		FileSize:    100 << 20,
		Bandwidth:   10 << 20,
		FlagSize:    1,
		ConnectTime: 50 * time.Millisecond,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.FileSize <= 0 {
		c.FileSize = d.FileSize
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = d.Bandwidth
	}
	if c.FlagSize <= 0 {
		c.FlagSize = d.FlagSize
	}
	if c.ConnectTime <= 0 {
		c.ConnectTime = d.ConnectTime
	}
}

// Injection sites consulted by this substrate (see core.Injector).
const (
	// InjectFetch covers any fetch from a server: an injected error is
	// a dropped connection or corrupted transfer, an injected delay is
	// a slow link.
	InjectFetch = "replica/fetch"
	// InjectHold covers the window where a client owns the service
	// lane: an injected Hang wedges the client mid-transfer, the
	// stuck-holder failure mode the lease watchdog exists for.
	InjectHold = "replica/hold"
	// InjectNet covers the channel between clients and a server's
	// service lane: lease-control messages (release, renew) cross it
	// and may be dropped, duplicated, or delayed (see
	// lease.Manager.SetWire). A Drop at InjectFetch, in turn, loses the
	// transfer's final acknowledgement: the bytes moved, the client
	// cannot tell.
	InjectNet = "replica/net"
)

// Server is one replica. A server is single-threaded: one client
// transfers at a time and the rest queue on the connection.
type Server struct {
	Name      string
	BlackHole bool
	cfg       Config
	inj       core.Injector
	lane      *lease.Manager

	// Transfers counts completed payload downloads; Probes counts flag
	// fetches served; Absorbed counts clients that entered the black
	// hole and eventually gave up; NetDrops counts acknowledgements
	// the channel swallowed after a completed transfer.
	Transfers int64
	Probes    int64
	Absorbed  int64
	NetDrops  int64
}

// NewServer creates a replica on engine e.
func NewServer(e core.Backend, name string, blackHole bool, cfg Config) *Server {
	cfg.fillDefaults()
	return &Server{
		Name:      name,
		BlackHole: blackHole,
		cfg:       cfg,
		lane:      lease.New(e, name, 1, cfg.LeaseQuantum),
	}
}

// Lane exposes the server's service-lane manager for observability
// hooks and gauges.
func (s *Server) Lane() *lease.Manager { return s.lane }

// SetBlackHole turns black-hole behaviour on or off at runtime,
// modeling a service that wedges and is later repaired. Clients already
// absorbed stay absorbed until their own timeouts free them.
func (s *Server) SetBlackHole(sick bool) { s.BlackHole = sick }

// SetInjector installs a fault injector consulted on every fetch, and
// routes the service lane's lease-control messages through it at
// InjectNet, fenced. A nil injector (the default) disables injection
// and removes the wire.
func (s *Server) SetInjector(inj core.Injector) {
	s.inj = inj
	s.lane.SetWire(inj, InjectNet, true)
}

// fetch serializes on the server's single service lane and simulates
// moving size bytes. On a black hole the client blocks until its
// context is canceled.
func (s *Server) fetch(p core.Proc, ctx context.Context, size int64) error {
	if err := p.Sleep(ctx, s.cfg.ConnectTime); err != nil {
		return err
	}
	l, err := s.lane.Acquire(p, ctx, p.Name(), 1)
	if err != nil {
		return err
	}
	defer l.Release()
	// Work under the lease context: a revoked tenure unwinds the hold.
	// With an unlimited quantum Ctx() is the caller's context.
	lctx := l.Ctx()
	if s.BlackHole {
		s.Absorbed++
		// Never returns data; only cancellation — or the lease watchdog
		// reclaiming the lane — frees us.
		return s.holdErr(ctx, l, p.Hang(lctx))
	}
	// Chaos seam: a stuck-holder plan wedges this client while it owns
	// the service lane, a per-client black hole.
	if f := core.InjectAt(s.inj, InjectHold); f.Hang {
		p.Tracer().FaultInjected(InjectHold)
		s.Absorbed++
		return s.holdErr(ctx, l, p.Hang(lctx))
	}
	d := time.Duration(float64(size) / float64(s.cfg.Bandwidth) * float64(time.Second))
	// Chaos seam: a fault plan may slow the transfer or drop it partway.
	if f := core.InjectAt(s.inj, InjectFetch); !f.Zero() {
		p.Tracer().FaultInjected(InjectFetch)
		d += f.Delay
		if f.Err != nil {
			// The connection dies mid-transfer: half the bytes moved.
			if err := s.sleepRenewing(p, lctx, l, d/2); err != nil {
				return s.holdErr(ctx, l, err)
			}
			return core.Collision(s.Name, f.Err)
		}
		if f.Drop {
			// The final acknowledgement is lost: every byte moved, but
			// the client cannot distinguish this from a dead server. It
			// pays the full transfer time and retries anyway.
			if err := s.sleepRenewing(p, lctx, l, d); err != nil {
				return s.holdErr(ctx, l, err)
			}
			p.Tracer().MsgDrop(s.Name)
			s.NetDrops++
			return core.Collision(s.Name, core.ErrLost)
		}
	}
	return s.holdErr(ctx, l, s.sleepRenewing(p, lctx, l, d))
}

// sleepRenewing sleeps for d, renewing the lease each half-quantum so
// an actively transferring client is never mistaken for a stuck one.
// With unlimited tenure it is a single plain sleep.
func (s *Server) sleepRenewing(p core.Proc, ctx context.Context, l lease.Lease, d time.Duration) error {
	q := s.lane.Quantum()
	if q <= 0 {
		return p.Sleep(ctx, d)
	}
	step := q / 2
	if step <= 0 {
		step = q
	}
	for d > 0 {
		chunk := d
		if chunk > step {
			chunk = step
		}
		if err := p.Sleep(ctx, chunk); err != nil {
			return err
		}
		d -= chunk
		l.Renew()
	}
	return nil
}

// holdErr classifies the end of a held-lane wait: the caller's own
// cancellation propagates; a revoked tenure is a collision on this
// server (the client touched the resource and lost it); otherwise the
// sleep's verdict stands.
func (s *Server) holdErr(ctx context.Context, l lease.Lease, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if l.Revoked() {
		return core.Collision(s.Name, lease.ErrRevoked)
	}
	return err
}

// FetchData downloads the full payload file.
func (s *Server) FetchData(p core.Proc, ctx context.Context) error {
	if err := s.fetch(p, ctx, s.cfg.FileSize); err != nil {
		return err
	}
	s.Transfers++
	return nil
}

// FetchFlag downloads the one-byte flag file — the cheap availability
// probe of the Ethernet reader.
func (s *Server) FetchFlag(p core.Proc, ctx context.Context) error {
	if err := s.fetch(p, ctx, s.cfg.FlagSize); err != nil {
		return err
	}
	s.Probes++
	return nil
}

// ReaderConfig shapes one reader client.
type ReaderConfig struct {
	// Discipline: Aloha uses only the 60 s data timeout; Ethernet adds
	// the 5 s flag probe. (A Fixed reader, for comparison, uses no
	// timeout at all and therefore never escapes the black hole.)
	Discipline core.Discipline
	// OuterLimit bounds one whole work unit (900 s in the paper).
	OuterLimit time.Duration
	// DataTimeout bounds a single payload attempt (60 s).
	DataTimeout time.Duration
	// ProbeTimeout bounds the flag probe (5 s).
	ProbeTimeout time.Duration
	// Trace, when non-nil, records this reader's attempt timeline.
	Trace *trace.Client
}

// DefaultReaderConfig mirrors the paper's scripts.
func DefaultReaderConfig(d core.Discipline) ReaderConfig {
	return ReaderConfig{
		Discipline:   d,
		OuterLimit:   900 * time.Second,
		DataTimeout:  60 * time.Second,
		ProbeTimeout: 5 * time.Second,
	}
}

// Reader is one client's accounting.
type Reader struct {
	// Done counts completed downloads.
	Done int64
	// Collisions counts 60-second attempts wasted on an unresponsive
	// server (the Aloha reader's black-hole penalty).
	Collisions int64
	// Deferrals counts probe failures that diverted the client cheaply.
	Deferrals int64
	// Rejections counts reservation requests a full book refused — like
	// a deferral, the client was diverted without consuming the server.
	Rejections int64
}

// ReadOnce performs one work unit: fetch the file from any server,
// within the outer limit. It implements the two paper scripts.
func (r *Reader) ReadOnce(p core.Proc, ctx context.Context, servers []*Server, cfg ReaderConfig) error {
	tr := cfg.Trace
	// The outer try records the work-unit span and its backoff intervals;
	// attempt events are emitted per server branch below, because the
	// interesting collisions happen inside forany rounds that ultimately
	// succeed on another server.
	outer := core.TryConfig{Trace: tr, Span: "read", Site: "server", SpanOnly: true}
	return core.Try(ctx, p, core.For(cfg.OuterLimit), outer, func(ctx context.Context) error {
		_, err := core.Forany(ctx, p, servers, true, func(ctx context.Context, srv *Server) error {
			if cfg.Discipline == core.Ethernet {
				// try for 5 seconds: wget http://$host/flag
				tr.Probe(srv.Name)
				perr := core.Try(ctx, p, core.For(cfg.ProbeTimeout), core.TryConfig{NoBackoff: true, Backoff: nil}, func(ctx context.Context) error {
					return srv.FetchFlag(p, ctx)
				})
				tr.CarrierSense(srv.Name, perr != nil)
				if perr != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					r.Deferrals++
					tr.Defer(srv.Name)
					return core.Deferred(srv.Name)
				}
			}
			// try for 60 seconds: wget http://$host/data
			tr.Attempt()
			derr := core.Try(ctx, p, core.For(cfg.DataTimeout), core.TryConfig{NoBackoff: true}, func(ctx context.Context) error {
				return srv.FetchData(p, ctx)
			})
			if derr != nil {
				if ctx.Err() != nil {
					tr.Failure() // cut short by the outer budget: wasted work
					return ctx.Err()
				}
				r.Collisions++
				tr.Collision(srv.Name)
				return core.Collision(srv.Name, derr)
			}
			r.Done++
			tr.Success()
			return nil
		})
		return err
	})
}

// Loop repeats ReadOnce until ctx is canceled, the paper's "each client
// repeatedly attempts to read a 100 MB file from a server chosen at
// random".
func (r *Reader) Loop(p core.Proc, ctx context.Context, servers []*Server, cfg ReaderConfig) {
	p.SetTracer(cfg.Trace)
	for ctx.Err() == nil {
		_ = r.ReadOnce(p, ctx, servers, cfg)
	}
}
