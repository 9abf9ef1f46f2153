// Package condor simulates the job-submission scenario of §5: a
// population of submitter clients contending for a Condor-style schedd
// whose critical shared resource is the kernel's table of file
// descriptors (FDs).
//
// The model captures the three feedback loops that shape Figures 1–3 of
// the paper:
//
//  1. Every submission attempt consumes FDs on the client side for its
//     whole duration (connect, queue, transfer), and a few more on the
//     schedd side per accepted connection.
//  2. When the schedd cannot allocate FDs for a new connection it
//     crashes, aborting every connected client at once — the paper's
//     "broadcast jam" — and restarts after a delay.
//  3. The schedd services a bounded number of handshakes concurrently,
//     so queueing (while holding FDs!) couples load to FD pressure.
package condor

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

// Config parameterizes the cluster. Zero fields take defaults chosen so
// the paper's qualitative shapes appear at the paper's client counts
// (collapse of Fixed above ~400 submitters, etc.).
type Config struct {
	// FDCapacity is the kernel file-descriptor table size.
	FDCapacity int
	// ClientFDs is the minimum FDs one submission attempt pins on the
	// client side while in flight; each attempt adds a uniform random
	// extra up to ClientFDJitter (different jobs carry different numbers
	// of input files and logs).
	ClientFDs int
	// ClientFDJitter is the maximum random extra client-side FDs.
	ClientFDJitter int
	// SetupTime separates the client's process-startup FD allocations
	// from its connection FDs, as a real submitter's open() calls are
	// spread over its startup.
	SetupTime time.Duration
	// ScheddFDs is how many FDs the schedd pins per accepted connection.
	ScheddFDs int
	// ServiceSlots bounds concurrent handshakes inside the schedd.
	ServiceSlots int
	// ServiceTime is the base time to transfer one job's details.
	ServiceTime time.Duration
	// ServiceJitter is the ± fraction of random variation on ServiceTime.
	ServiceJitter float64
	// CPULoad models competition for managed resources (§5: the Ethernet
	// client "maintains about 50 percent of peak performance under
	// load, due to competition for managed resources, such as the
	// CPU"): each connected client inflates service time by this
	// fraction.
	CPULoad float64
	// ConnectFailTime is how long a failed or refused connection attempt
	// costs the client — failures are never free.
	ConnectFailTime time.Duration
	// RestartDelay is how long a crashed schedd stays down.
	RestartDelay time.Duration
	// HousekeepFDs is how many descriptors the schedd's own periodic
	// work (fsyncing the job queue, contacting the matchmaker) briefly
	// needs. If it cannot get them the schedd crashes — "the schedd
	// itself failing when it cannot allocate enough FDs" (§5).
	HousekeepFDs int
	// HousekeepInterval is the cadence of that background work.
	HousekeepInterval time.Duration
	// LeaseQuantum bounds how long a submission may pin descriptors
	// before renewing: the limited-allocation discipline. Zero (the
	// default, and the paper's figures 1–3) means unlimited tenure —
	// holds are never revoked.
	LeaseQuantum time.Duration
	// Unfenced disables the survival mechanisms against an unreliable
	// channel: the FD table applies lease control messages without
	// epoch fencing, and the schedd re-runs retried work units instead
	// of deduplicating them by idempotency key. It exists for the
	// FigNet ablation; the default (false) is the defended
	// configuration.
	Unfenced bool
}

// DefaultConfig returns the parameters used for the paper figures.
func DefaultConfig() Config {
	return Config{
		FDCapacity:        8192,
		ClientFDs:         15,
		ClientFDJitter:    5,
		SetupTime:         20 * time.Millisecond,
		ScheddFDs:         3,
		ServiceSlots:      4,
		ServiceTime:       1500 * time.Millisecond,
		ServiceJitter:     0.2,
		CPULoad:           0.0025,
		ConnectFailTime:   100 * time.Millisecond,
		RestartDelay:      30 * time.Second,
		HousekeepFDs:      50,
		HousekeepInterval: 5 * time.Second,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.FDCapacity <= 0 {
		c.FDCapacity = d.FDCapacity
	}
	if c.ClientFDs <= 0 {
		c.ClientFDs = d.ClientFDs
	}
	// For these two, zero selects the default; pass a negative value to
	// explicitly disable the effect.
	if c.ClientFDJitter == 0 {
		c.ClientFDJitter = d.ClientFDJitter
	} else if c.ClientFDJitter < 0 {
		c.ClientFDJitter = 0
	}
	if c.CPULoad == 0 {
		c.CPULoad = d.CPULoad
	} else if c.CPULoad < 0 {
		c.CPULoad = 0
	}
	if c.SetupTime <= 0 {
		c.SetupTime = d.SetupTime
	}
	if c.ScheddFDs <= 0 {
		c.ScheddFDs = d.ScheddFDs
	}
	if c.ServiceSlots <= 0 {
		c.ServiceSlots = d.ServiceSlots
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = d.ServiceTime
	}
	if c.ServiceJitter <= 0 {
		c.ServiceJitter = d.ServiceJitter
	}
	if c.ConnectFailTime <= 0 {
		c.ConnectFailTime = d.ConnectFailTime
	}
	if c.RestartDelay <= 0 {
		c.RestartDelay = d.RestartDelay
	}
	if c.HousekeepFDs <= 0 {
		c.HousekeepFDs = d.HousekeepFDs
	}
	if c.HousekeepInterval <= 0 {
		c.HousekeepInterval = d.HousekeepInterval
	}
}

// Injection sites consulted by this substrate (see core.Injector).
const (
	// InjectConnect covers the client's attempt to reach the schedd:
	// an injected error is a refused/reset connection, an injected
	// delay is network or accept-queue latency.
	InjectConnect = "condor/connect"
	// InjectService covers the job-transfer phase: an injected error
	// resets the connection mid-transfer, an injected delay slows the
	// service.
	InjectService = "condor/service"
	// InjectHold covers the window where a client pins descriptors: an
	// injected Hang turns the client into a black hole while holding,
	// the stuck-holder failure mode the lease watchdog exists for.
	InjectHold = "condor/hold"
	// InjectNet covers the lease-control channel between FD holders and
	// the table: drops lose release/renew messages, dups deliver them
	// twice, delays put them in flight (see lease.Manager.SetWire).
	InjectNet = "condor/net"
	// InjectNetReq covers the request direction of a keyed submission
	// (client -> schedd): a drop means the job never reached the queue.
	InjectNetReq = "condor/net/req"
	// InjectNetRep covers the reply direction (schedd -> client): a drop
	// means the job landed but the acknowledgement was lost, so the
	// client retries work that already happened — the at-most-once
	// hazard idempotency keys exist for.
	InjectNetRep = "condor/net/rep"
)

// Errors distinguishing submission failure modes; all are collisions in
// the Ethernet sense (detected after consuming the resource).
var (
	// ErrNoFDs means the client could not allocate file descriptors.
	ErrNoFDs = errors.New("cannot allocate file descriptors")
	// ErrScheddDown means the connection was refused.
	ErrScheddDown = errors.New("connection refused: schedd down")
	// ErrScheddCrashed means the schedd died mid-submission.
	ErrScheddCrashed = errors.New("connection reset: schedd crashed")
)

// The refusals a submission returns, built once: every field of each is
// a constant, and a refusal is read-only.
var (
	errNoFDs         = core.Collision("fds", ErrNoFDs)
	errScheddDown    = core.Collision("schedd", ErrScheddDown)
	errScheddCrashed = core.Collision("schedd", ErrScheddCrashed)
	errRevoked       = core.Collision("lease", lease.ErrRevoked)
	errLost          = core.Collision("net", core.ErrLost)
)

// Schedd is the simulated Condor scheduler daemon.
type Schedd struct {
	eng  core.Backend
	cfg  Config
	fds  lease.Carrier
	inj  core.Injector
	down bool

	slots *lease.Manager

	// conns maps live connection ids to their abort functions, so a
	// crash can reset every client at once.
	conns  map[int64]context.CancelFunc
	connID int64

	// Jobs counts successful submissions; Crashes counts schedd deaths.
	Jobs    int64
	Crashes int64

	// Idempotency: seen marks work-unit keys whose effect has already
	// applied, so a client retry under drop/dup is at-most-once. Unique
	// counts distinct completed keys; Deduped counts retries and
	// duplicates the key fenced off; NetDrops counts messages the
	// channel swallowed. With keys honored (the default), Jobs ==
	// Unique always — the unit-conservation invariant. Unfenced, a
	// reply-drop retry or a duplicated request re-applies the effect
	// and Jobs drifts above Unique.
	seen     map[string]bool
	keySeq   int64
	Unique   int64
	Deduped  int64
	NetDrops int64
}

// Cluster bundles the shared FD table and the schedd.
type Cluster struct {
	Eng core.Backend
	Cfg Config
	// FDs is the kernel's table of file descriptors, shared by every
	// process on the submit machine. Acquisition never queues: a
	// process that cannot get descriptors fails at once, as open(2)
	// fails with EMFILE. Free is what the Ethernet submitter senses
	// (/proc/sys/fs/file-nr). The carrier is a lease.Manager in
	// process, or a gridd daemon's resource when the backend keeps the
	// table there.
	FDs    lease.Carrier
	Schedd *Schedd
}

// NewCluster builds the scenario substrate on engine e, its FD table a
// lease.Manager on e.
func NewCluster(e core.Backend, cfg Config) *Cluster {
	return NewClusterOn(e, cfg, func(capacity int64, quantum time.Duration) lease.Carrier {
		return lease.New(e, "fds", capacity, quantum)
	})
}

// NewClusterOn builds the scenario substrate on engine e, its FD table
// on the carrier fds returns for the configured capacity and tenure
// quantum (0 = unlimited): the backend decides where the table lives.
func NewClusterOn(e core.Backend, cfg Config, fds func(capacity int64, quantum time.Duration) lease.Carrier) *Cluster {
	cfg.fillDefaults()
	s := &Schedd{
		eng:   e,
		cfg:   cfg,
		fds:   fds(int64(cfg.FDCapacity), cfg.LeaseQuantum),
		slots: lease.New(e, "schedd-slots", int64(cfg.ServiceSlots), 0),
		conns: make(map[int64]context.CancelFunc),
	}
	return &Cluster{Eng: e, Cfg: cfg, FDs: s.fds, Schedd: s}
}

// SetInjector installs a fault injector consulted at this cluster's
// failure sites, and routes the FD table's lease-control messages
// through it at InjectNet (fenced unless Config.Unfenced) when the
// table is a lease.Manager in process; a table kept elsewhere has a
// real wire to it, and no InjectNet. A nil injector (the default)
// disables injection and removes the wire.
func (c *Cluster) SetInjector(inj core.Injector) {
	c.Schedd.inj = inj
	if m, ok := c.FDs.(*lease.Manager); ok {
		m.SetWire(inj, InjectNet, !c.Cfg.Unfenced)
	}
}

// Down reports whether the schedd is currently crashed.
func (s *Schedd) Down() bool { return s.down }

// Kill crashes the schedd as if it had exhausted a resource: every live
// connection is reset and the daemon restarts after RestartDelay.
// Killing an already-down schedd is a no-op. It exists for fault plans.
func (s *Schedd) Kill() { s.crash() }

// StartHousekeeping begins the schedd's periodic background work, which
// transiently needs HousekeepFDs descriptors: each tick senses the FD
// table, and fewer free than that crashes the daemon. The work takes
// no time, so nothing else can run between taking the descriptors and
// returning them, and a sense decides what a take would have. The loop
// stops when ctx is canceled, letting the engine quiesce at the end of
// an experiment window.
func (c *Cluster) StartHousekeeping(ctx context.Context) {
	s := c.Schedd
	var tick func()
	tick = func() {
		if ctx.Err() != nil {
			return
		}
		if !s.down && s.fds.Sense().Free() < int64(s.cfg.HousekeepFDs) {
			s.crash()
		}
		s.eng.Schedule(s.cfg.HousekeepInterval, tick)
	}
	s.eng.Schedule(s.cfg.HousekeepInterval, tick)
}

// Submit performs one submission attempt from process p. It returns nil
// when the job lands in the queue; any error is a collision (the
// resource was touched and contention or breakage was discovered).
func (s *Schedd) Submit(p core.Proc, ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	outer := ctx
	tr := p.Tracer()
	// Chaos seam: a fault plan may slow or refuse the connection here,
	// upstream of the organic failure modes below.
	if f := core.InjectAt(s.inj, InjectConnect); !f.Zero() {
		tr.FaultInjected(InjectConnect)
		if f.Delay > 0 {
			if err := p.Sleep(ctx, f.Delay); err != nil {
				return err
			}
		}
		if f.Err != nil {
			if err := p.Sleep(ctx, s.cfg.ConnectFailTime); err != nil {
				return err
			}
			return core.Collision("schedd", f.Err)
		}
	}
	// The client process must allocate its own descriptors — program
	// text, the job file, logs, then sockets. This is the unmanaged
	// resource the paper found to be the real bottleneck. Allocation is
	// spread over process startup, so competing clients interleave and
	// the table can overcommit in aggregate.
	want := s.cfg.ClientFDs
	if s.cfg.ClientFDJitter > 0 {
		want += int(p.Rand() * float64(s.cfg.ClientFDJitter+1))
	}
	first := want / 2
	l1, ok := s.fds.TryAcquire(p, ctx, p.Name(), int64(first))
	if !ok {
		if err := p.Sleep(ctx, s.cfg.ConnectFailTime); err != nil {
			return err
		}
		return errNoFDs
	}
	defer l1.Release()
	// Work under the lease context from here on: when the watchdog
	// revokes a hold, everything downstream unwinds. With an unlimited
	// quantum Ctx() is the caller's context and nothing changes.
	ctx = l1.Ctx()
	if err := p.Sleep(ctx, s.cfg.SetupTime); err != nil {
		return s.submitErr(outer, lease.Lease{}, l1)
	}
	rest := want - first
	l2, ok := s.fds.TryAcquire(p, ctx, p.Name(), int64(rest))
	if !ok {
		if err := p.Sleep(ctx, s.cfg.ConnectFailTime); err != nil {
			return s.submitErr(outer, lease.Lease{}, l1)
		}
		return errNoFDs
	}
	defer l2.Release()
	ctx = l2.Ctx()

	// Chaos seam: a stuck-holder plan turns this client into a black
	// hole while it pins its descriptors. Only the lease watchdog (or
	// the caller's own deadline) gets things moving again.
	if f := core.InjectAt(s.inj, InjectHold); f.Hang {
		tr.FaultInjected(InjectHold)
		_ = p.Hang(ctx)
		return s.submitErr(outer, lease.Lease{}, l1, l2)
	}

	// Connected on the client side: the schedd half of the submission is
	// shared with the reservation path. Renewing l1 and l2 once the
	// transfer begins keeps the holds inside their tenure quantum.
	return s.serve(p, ctx, outer, func() {
		l1.Renew()
		l2.Renew()
	}, l1, l2)
}

// MintKey returns a fresh work-unit idempotency key, unique within
// this schedd (engine token). Clients mint one key per work unit and
// reuse it across every retry of that unit: uniqueness cannot be
// derived from process names, which scenarios are free to share.
func (s *Schedd) MintKey() string {
	s.keySeq++
	return "u" + strconv.FormatInt(s.keySeq, 10)
}

// SubmitKeyed is Submit across an unreliable channel, carrying an
// idempotency key naming the work unit. The request may be dropped or
// duplicated in flight (InjectNetReq) and the acknowledgement may be
// lost on the way back (InjectNetRep); in both cases the client
// observes only an untyped loss and retries. The schedd's seen-set
// makes the retry at-most-once: a key whose effect already applied is
// acknowledged without re-running the job. An empty key (or
// Config.Unfenced) disables deduplication — every arrival re-runs.
func (s *Schedd) SubmitKeyed(p core.Proc, ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := p.Tracer()
	var dup bool
	// Request direction: client -> schedd.
	if f := core.InjectAt(s.inj, InjectNetReq); !f.Zero() {
		if f.Delay > 0 {
			if err := p.Sleep(ctx, f.Delay); err != nil {
				return err
			}
		}
		if f.Drop || f.Err != nil {
			// The submission never arrived. The client pays the connect
			// timeout before concluding anything — loss is silence.
			tr.MsgDrop("schedd")
			s.NetDrops++
			if err := p.Sleep(ctx, s.cfg.ConnectFailTime); err != nil {
				return err
			}
			return errLost
		}
		dup = f.Dup
	}
	// At-most-once: a retry of an already-applied work unit is
	// acknowledged from the seen-set instead of re-running.
	if key != "" && !s.cfg.Unfenced && s.seen[key] {
		s.Deduped++
		tr.MsgDup("schedd")
		return nil
	}
	if err := s.Submit(p, ctx); err != nil {
		return err
	}
	if key != "" {
		if s.seen == nil {
			s.seen = make(map[string]bool)
		}
		if !s.seen[key] {
			s.seen[key] = true
			s.Unique++
		}
	}
	if dup {
		// The duplicated request also reaches the schedd. Keyed, the
		// seen-set fences the copy; unfenced, the job runs twice and
		// unit conservation breaks (Jobs > Unique).
		tr.MsgDup("schedd")
		if key != "" && !s.cfg.Unfenced {
			s.Deduped++
		} else {
			s.Jobs++
		}
	}
	// Reply direction: schedd -> client. The effect is applied; only
	// the acknowledgement is at risk now.
	if f := core.InjectAt(s.inj, InjectNetRep); !f.Zero() {
		if f.Delay > 0 {
			if err := p.Sleep(ctx, f.Delay); err != nil {
				return err
			}
		}
		if f.Drop || f.Err != nil {
			// The ack was lost: the client will retry a job that already
			// landed. The seen-set (above) is what makes that safe.
			tr.MsgDrop("schedd")
			s.NetDrops++
			return errLost
		}
	}
	return nil
}

// serve is the schedd side of a submission, shared by Submit and
// SubmitReserved: accept the connection (pinning schedd FDs, crashing
// the daemon if it cannot), register for the crash broadcast, queue
// for a service slot, and transfer the job. held lists the leases the
// caller is working under, for abort classification; renew is called
// once the transfer begins so the caller can extend those holds for
// the service time.
func (s *Schedd) serve(p core.Proc, ctx, outer context.Context, renew func(), held ...lease.Lease) error {
	tr := p.Tracer()
	if s.down {
		if err := p.Sleep(ctx, s.cfg.ConnectFailTime); err != nil {
			return s.submitErr(outer, lease.Lease{}, held...)
		}
		return errScheddDown
	}

	// The schedd accepts the connection, pinning its own descriptors.
	// Failure to do so kills the schedd (broadcast jam).
	l3, ok := s.fds.TryAcquire(p, ctx, "schedd", int64(s.cfg.ScheddFDs))
	if !ok {
		s.crash()
		if err := p.Sleep(ctx, s.cfg.ConnectFailTime); err != nil {
			return s.submitErr(outer, lease.Lease{}, held...)
		}
		return errScheddCrashed
	}
	defer l3.Release()
	ctx = l3.Ctx()

	// Register for the crash broadcast.
	connCtx, cancel := s.eng.WithCancel(ctx)
	defer cancel()
	id := s.connID
	s.connID++
	s.conns[id] = cancel
	defer delete(s.conns, id)

	// Queue for a service slot, then transfer the job.
	if err := s.slots.Take(p, connCtx, 1); err != nil {
		return s.submitErr(outer, l3, held...)
	}
	tr.Acquire("slot", 1)
	defer func() {
		s.slots.Put(1)
		tr.Release("slot", 1)
	}()
	// Connected and in service: the holds are now doing useful work,
	// so renew their tenure for the transfer.
	renew()
	l3.Renew()
	// Service slows as more clients are connected: the CPU, memory, and
	// disk of the submit machine are themselves shared resources.
	d := time.Duration(float64(s.cfg.ServiceTime) * (1 + s.cfg.CPULoad*float64(len(s.conns))))
	d += time.Duration(float64(d) * s.cfg.ServiceJitter * (2*p.Rand() - 1))
	// Chaos seam: a fault plan may stretch the transfer or reset the
	// connection mid-service, like the organic crash path.
	if f := core.InjectAt(s.inj, InjectService); !f.Zero() {
		tr.FaultInjected(InjectService)
		d += f.Delay
		if f.Err != nil {
			if err := p.Sleep(connCtx, d); err != nil {
				return s.submitErr(outer, l3, held...)
			}
			return core.Collision("schedd", f.Err)
		}
	}
	if err := p.Sleep(connCtx, d); err != nil {
		return s.submitErr(outer, l3, held...)
	}
	s.Jobs++
	return nil
}

// submitErr classifies an aborted submission: if the caller's own
// context died, propagate; if a lease was revoked out from under the
// client, that is a collision on the tenure discipline itself;
// otherwise the schedd crashed underneath us. own is the schedd's
// descriptor lease for the connection (the zero Lease before it has
// one), held the leases the client works under.
func (s *Schedd) submitErr(ctx context.Context, own lease.Lease, held ...lease.Lease) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if own.Revoked() {
		return errRevoked
	}
	for _, l := range held {
		if l.Revoked() {
			return errRevoked
		}
	}
	return errScheddCrashed
}

// crash kills the schedd: every live connection is reset and the daemon
// restarts after RestartDelay.
func (s *Schedd) crash() {
	if s.down {
		return
	}
	s.down = true
	s.Crashes++
	// Reset connections in id order so the simulation stays
	// deterministic (map iteration order is randomized).
	ids := make([]int64, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cancel := s.conns[id]
		delete(s.conns, id)
		cancel()
	}
	s.eng.Schedule(s.cfg.RestartDelay, func() { s.down = false })
}
