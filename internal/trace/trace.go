// Package trace is a deterministic, virtual-clock event tracer for the
// grid disciplines. Where internal/metrics records coarse cumulative
// series (how many jobs, how many collisions), this package records
// *when* each client probed, collided, backed off, acquired, and
// released — the behavioral evidence behind the paper's figures.
//
// The model mirrors Chrome's trace-event vocabulary: a Tracer holds a
// flat, append-only event log; each event belongs to a process (one per
// discipline) and a thread (one per client). Client is the per-client
// emitting handle; all of its methods are safe on a nil receiver, so a
// disabled tracer costs a single nil check and zero allocations on the
// hot path (TestNilClientZeroAllocations; `go run ./bench --trace 1`
// reports the enabled cost as trace.overhead_frac).
//
// Like internal/metrics, the tracer is single-writer under the
// simulation token; a mutex additionally serializes emission so the
// real-clock ftsh interpreter (whose forall branches run in parallel)
// can share one tracer. Events carry virtual-time offsets from a
// per-client clock, never the wall clock, so identical seeds produce
// byte-identical traces (TestJSONLDeterministic).
package trace

import (
	"sync"
	"time"
)

// Kind labels one traced event.
type Kind uint8

// Event kinds. Probe/CarrierSense record the Ethernet carrier-sense
// cycle; Attempt and its terminal kinds (Success, Failure, Collision)
// bracket resource-consuming work; Defer records an attempt abandoned
// before consuming the resource; BackoffStart/BackoffEnd bracket the
// inter-attempt sleep; Acquire/Release bracket resource tenure, with
// Revoke closing a tenure the lease watchdog reclaimed instead;
// FaultInjected marks a chaos-plan intervention; SpanBegin/SpanEnd
// bracket hierarchical scopes (ftsh try/forany/forall blocks, client
// attempt loops).
const (
	KProbe Kind = iota
	KCarrierSense
	KAttempt
	KSuccess
	KFailure
	KCollision
	KDefer
	KExhausted
	KBackoffStart
	KBackoffEnd
	KAcquire
	KRelease
	KFaultInjected
	KSpanBegin
	KSpanEnd
	KRevoke
	// Reservation-discipline kinds. Reserve records the book admitting
	// an advance booking (Arg = window start, ns of virtual time);
	// Admit records the booked window being claimed (Arg = window end);
	// Reject records admission refusing an attempt outright (Arg = the
	// book's shortfall, always positive); Forfeit records a booked
	// window abandoned without a claim (canceled or lapsed).
	KReserve
	KAdmit
	KReject
	KForfeit
	// Unreliable-channel kinds. MsgDrop records a control message the
	// channel swallowed; MsgDup records one it duplicated; Stale records
	// a stale-epoch message a fenced resource rejected (Arg = units the
	// rejected message covered).
	KMsgDrop
	KMsgDup
	KStale
)

// String names the kind as it appears in exported traces.
func (k Kind) String() string {
	switch k {
	case KProbe:
		return "probe"
	case KCarrierSense:
		return "carrier-sense"
	case KAttempt:
		return "attempt"
	case KSuccess:
		return "success"
	case KFailure:
		return "failure"
	case KCollision:
		return "collision"
	case KDefer:
		return "defer"
	case KExhausted:
		return "exhausted"
	case KBackoffStart:
		return "backoff-start"
	case KBackoffEnd:
		return "backoff-end"
	case KAcquire:
		return "acquire"
	case KRelease:
		return "release"
	case KFaultInjected:
		return "fault-injected"
	case KSpanBegin:
		return "span-begin"
	case KSpanEnd:
		return "span-end"
	case KRevoke:
		return "revoke"
	case KReserve:
		return "reserve"
	case KAdmit:
		return "admit"
	case KReject:
		return "reject"
	case KForfeit:
		return "forfeit"
	case KMsgDrop:
		return "msg-drop"
	case KMsgDup:
		return "msg-dup"
	case KStale:
		return "stale"
	default:
		return "unknown"
	}
}

// Event is one trace record. Arg is kind-specific: units for
// Acquire/Release, 1 for a busy CarrierSense (0 idle), the planned
// delay in nanoseconds for BackoffStart (whose Site carries the
// trigger), and the span id for SpanBegin/SpanEnd.
type Event struct {
	At   time.Duration // virtual time since the run began
	Kind Kind
	PID  int32 // process: one per discipline (or tool)
	TID  int32 // thread: one per client
	Arg  int64
	Site string // resource, injection site, or span name ("" if n/a)
}

// Meta identifies a trace: the simulation seed, the scenario, and the
// fault plan (if any) with its own seed, so exported traces are
// self-describing and fault events can be tied back to the plan that
// scheduled them.
type Meta struct {
	Seed     int64
	Scenario string
	Plan     string // chaos plan name; "" when no plan armed
	PlanSeed int64
}

// thread is the registry record behind one TID.
type thread struct {
	pid  int32
	name string
}

// Tracer is the shared event sink. Create one with New, hand out
// per-client handles with NewClient, and export with WriteJSONL or
// WriteChrome. The zero value is not ready for use.
type Tracer struct {
	mu      sync.Mutex
	meta    Meta
	procs   []string
	procIDs map[string]int32
	threads []thread
	events  []Event
	spanSeq int64
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{procIDs: make(map[string]int32)}
}

// SetMeta records the trace identity (seed, scenario, fault plan).
func (t *Tracer) SetMeta(m Meta) {
	t.mu.Lock()
	t.meta = m
	t.mu.Unlock()
}

// Meta returns the trace identity.
func (t *Tracer) Meta() Meta {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.meta
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns the recorded events in emission order. The slice is
// shared; callers must not mutate it.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Procs returns the registered process names indexed by PID.
func (t *Tracer) Procs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.procs
}

// NewClient registers a client under process proc (interned: clients of
// the same discipline share a PID) with its own fresh thread, reading
// virtual time from clock. A nil tracer returns a nil client, which is
// valid and inert.
func (t *Tracer) NewClient(proc, threadName string, clock func() time.Duration) *Client {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pid, ok := t.procIDs[proc]
	if !ok {
		pid = int32(len(t.procs))
		t.procs = append(t.procs, proc)
		t.procIDs[proc] = pid
	}
	tid := int32(len(t.threads))
	t.threads = append(t.threads, thread{pid: pid, name: threadName})
	return &Client{t: t, pid: pid, tid: tid, clock: clock}
}

// Client is one client's emitting handle: a (process, thread) identity
// plus a virtual clock. All methods are nil-safe no-ops, so disabled
// tracing is a pointer comparison on the hot path.
type Client struct {
	t     *Tracer
	pid   int32
	tid   int32
	clock func() time.Duration
}

// Tracer returns the underlying tracer (nil for a nil client).
func (c *Client) Tracer() *Tracer {
	if c == nil {
		return nil
	}
	return c.t
}

// Fork registers a sibling client: same process, new thread, same
// clock. The ftsh interpreter forks one per forall branch so parallel
// branches emit well-nested spans on their own timelines.
func (c *Client) Fork(threadName string) *Client {
	if c == nil {
		return nil
	}
	return c.t.NewClient(c.t.procName(c.pid), threadName, c.clock)
}

// procName resolves a PID back to its registered name.
func (t *Tracer) procName(pid int32) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.procs[pid]
}

// emit appends one event stamped with the client's clock.
func (c *Client) emit(k Kind, site string, arg int64) {
	ev := Event{At: c.clock(), Kind: k, PID: c.pid, TID: c.tid, Arg: arg, Site: site}
	c.t.mu.Lock()
	c.t.events = append(c.t.events, ev)
	c.t.mu.Unlock()
}

// Probe records a carrier-sense probe being issued against site.
func (c *Client) Probe(site string) {
	if c == nil {
		return
	}
	c.emit(KProbe, site, 0)
}

// CarrierSense records the probe's verdict: busy (defer) or idle.
func (c *Client) CarrierSense(site string, busy bool) {
	if c == nil {
		return
	}
	arg := int64(0)
	if busy {
		arg = 1
	}
	c.emit(KCarrierSense, site, arg)
}

// Attempt records the start of a resource-consuming attempt.
func (c *Client) Attempt() {
	if c == nil {
		return
	}
	c.emit(KAttempt, "", 0)
}

// Success terminates the current attempt successfully.
func (c *Client) Success() {
	if c == nil {
		return
	}
	c.emit(KSuccess, "", 0)
}

// Failure terminates the current attempt with a generic failure.
func (c *Client) Failure() {
	if c == nil {
		return
	}
	c.emit(KFailure, "", 0)
}

// Collision terminates the current attempt with a collision on site.
func (c *Client) Collision(site string) {
	if c == nil {
		return
	}
	c.emit(KCollision, site, 0)
}

// Defer records an attempt abandoned before consuming the resource.
func (c *Client) Defer(site string) {
	if c == nil {
		return
	}
	c.emit(KDefer, site, 0)
}

// Exhausted records a try giving up its budget.
func (c *Client) Exhausted() {
	if c == nil {
		return
	}
	c.emit(KExhausted, "", 0)
}

// BackoffStart records entry into the inter-attempt sleep: the planned
// delay plus the trigger that sent the client there ("collision",
// "failure", "defer", ...). The analyzer splits exponential penalty
// backoff (collision/failure) from polite carrier-sense waits (defer)
// on this tag.
func (c *Client) BackoffStart(planned time.Duration, trigger string) {
	if c == nil {
		return
	}
	c.emit(KBackoffStart, trigger, int64(planned))
}

// BackoffEnd records the end of the inter-attempt sleep (possibly cut
// short by a budget).
func (c *Client) BackoffEnd() {
	if c == nil {
		return
	}
	c.emit(KBackoffEnd, "", 0)
}

// Acquire records taking n units of resource res.
func (c *Client) Acquire(res string, n int64) {
	if c == nil {
		return
	}
	c.emit(KAcquire, res, n)
}

// Release records returning n units of resource res.
func (c *Client) Release(res string, n int64) {
	if c == nil {
		return
	}
	c.emit(KRelease, res, n)
}

// Revoke records the lease watchdog forcibly reclaiming n units of
// resource res from this client: tenure ended without a release.
func (c *Client) Revoke(res string, n int64) {
	if c == nil {
		return
	}
	c.emit(KRevoke, res, n)
}

// Reserve records the book at res admitting an advance booking whose
// window opens at start (virtual time since the run began).
func (c *Client) Reserve(res string, start time.Duration) {
	if c == nil {
		return
	}
	c.emit(KReserve, res, int64(start))
}

// Admit records a booked window on res being claimed; end is the
// window's close. The grammar demands the claim lie inside the window
// booked by the matching Reserve.
func (c *Client) Admit(res string, end time.Duration) {
	if c == nil {
		return
	}
	c.emit(KAdmit, res, int64(end))
}

// Reject records admission control at res refusing the attempt
// outright, shortfall units over the book's capacity. A rejection
// terminates the current attempt, like a collision, but marks the book
// full rather than the wire hot.
func (c *Client) Reject(res string, shortfall int64) {
	if c == nil {
		return
	}
	c.emit(KReject, res, shortfall)
}

// Forfeit records a booked window on res given up without a claim:
// the client canceled it, or the window lapsed unclaimed.
func (c *Client) Forfeit(res string) {
	if c == nil {
		return
	}
	c.emit(KForfeit, res, 0)
}

// FaultInjected records a chaos-plan intervention at site biting this
// client (or, for scheduled actions, the plan's own chaos process).
func (c *Client) FaultInjected(site string) {
	if c == nil {
		return
	}
	c.emit(KFaultInjected, site, 0)
}

// MsgDrop records a control message to res swallowed by the channel.
func (c *Client) MsgDrop(res string) {
	if c == nil {
		return
	}
	c.emit(KMsgDrop, res, 0)
}

// MsgDup records a control message to res duplicated by the channel.
func (c *Client) MsgDup(res string) {
	if c == nil {
		return
	}
	c.emit(KMsgDup, res, 0)
}

// Stale records a stale-epoch message covering n units that a fenced
// resource rejected.
func (c *Client) Stale(res string, n int64) {
	if c == nil {
		return
	}
	c.emit(KStale, res, n)
}

// SpanBegin opens a named hierarchical span and returns its id. Spans
// on one thread must nest properly (begin/end in stack order), which
// sequential clients guarantee; parallel scopes should Fork first.
func (c *Client) SpanBegin(name string) int64 {
	if c == nil {
		return 0
	}
	c.t.mu.Lock()
	c.t.spanSeq++
	id := c.t.spanSeq
	c.t.mu.Unlock()
	c.emit(KSpanBegin, name, id)
	return id
}

// SpanEnd closes the span opened by SpanBegin. id zero (from a nil
// client's SpanBegin) is ignored.
func (c *Client) SpanEnd(id int64) {
	if c == nil || id == 0 {
		return
	}
	c.emit(KSpanEnd, "", id)
}
