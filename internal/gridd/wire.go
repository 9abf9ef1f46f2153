package gridd

// The gridd wire protocol: JSON bodies shared by the daemon's
// operations and the client library (internal/griddclient). The protocol
// speaks *real* durations in nanoseconds — the daemon runs on the wall
// clock and has no idea its clients compress time; a live-backend
// client converts virtual tenures with its engine timescale before
// they cross the socket (milliseconds would be too coarse: at
// timescale 2000 one virtual second is half a real millisecond).
//
// Endpoints:
//
//	GET  /probe/{name}   carrier sense: capacity, in-use, queue (cheap)
//	POST /acquire        lease units; WaitNS>0 parks FIFO (long poll)
//	POST /release        return a lease (fenced: dup/late -> stale)
//	POST /renew          extend a tenure before the watchdog fires
//	POST /reserve        book an admission window (interval book)
//	POST /claim          convert a booking into a window-fenced lease
//	POST /cancel         forfeit an unclaimed booking
//	POST /resources      create (or resize) a resource
//	GET  /stats/{name}   counters + per-holder starvation ledger
//	GET  /metrics        Prometheus text (internal/obs)
//	GET  /healthz        liveness + draining status
//
// Behind every endpoint is internal/lease (the daemon hosts one
// lease.Book per resource), so the simulator is the specification of
// the state machine and the comments below say what of it crosses the
// wire. Request bodies are read up to 64 KiB; more is a bad request.
//
// Error bodies are ErrorReply; the client library rebuilds the typed
// errors (core.StaleError, core.RejectedError, ErrUnavailable) from
// the Code field, so errors.Is(err, core.ErrStale) holds across the
// socket exactly as it does in-process.

// Error codes carried in ErrorReply.Code.
const (
	// CodeBusy: an immediate-mode acquire found no free units (or a
	// FIFO queue it may not jump) — the EMFILE analogue. HTTP 409.
	CodeBusy = "busy"
	// CodeDraining: the daemon is shutting down gracefully; the error
	// is retriable against a peer. HTTP 503.
	CodeDraining = "draining"
	// CodeStale: the operation carried a fencing epoch the resource has
	// moved past (late/duplicate release or renew). HTTP 410.
	CodeStale = "stale"
	// CodeRejected: the admission book refused the window outright;
	// Shortfall says by how much. HTTP 409.
	CodeRejected = "rejected"
	// CodeLapsed: a claim or cancel named a booking the book issued and
	// has since retired — its window closed, or it was canceled, or
	// claimed and released. HTTP 410.
	CodeLapsed = "lapsed"
	// CodeEarly: a claim arrived before its booking's window opened.
	// HTTP 409.
	CodeEarly = "early"
	// CodeUnknown: no such resource, or a booking id the book never
	// issued. HTTP 404.
	CodeUnknown = "unknown"
	// CodeBadRequest: malformed body or parameters. HTTP 400.
	CodeBadRequest = "bad-request"
)

// ErrorReply is the body of every non-2xx response.
type ErrorReply struct {
	Code    string `json:"code"`
	Message string `json:"message,omitempty"`
	// Shortfall accompanies busy/rejected: units over capacity.
	Shortfall int64 `json:"shortfall,omitempty"`
	// Epoch and Fence accompany stale, reconstructing core.StaleError.
	Epoch uint64 `json:"epoch,omitempty"`
	Fence uint64 `json:"fence,omitempty"`
}

// Error renders the reply's code and message.
func (e *ErrorReply) Error() string { return e.Code + ": " + e.Message }

// CreateRequest creates a resource, or resizes an existing one (only
// Capacity may change after creation; the other fields are fixed at
// first creation, so a re-create from a reconnecting client is
// idempotent).
type CreateRequest struct {
	Name     string `json:"name"`
	Capacity int64  `json:"capacity"`
	// QuantumNS is the default lease tenure; 0 means unlimited (no
	// watchdog — the unleased ablation).
	QuantumNS int64 `json:"quantum_ns,omitempty"`
	// Unfenced disables epoch fencing: duplicate releases double-free,
	// which is exactly what the fenced-vs-unfenced ablation measures.
	Unfenced bool `json:"unfenced,omitempty"`
}

// ProbeReply is the carrier-sense observation.
type ProbeReply struct {
	Resource string `json:"resource"`
	Capacity int64  `json:"capacity"`
	InUse    int64  `json:"in_use"`
	Free     int64  `json:"free"`
	// Queue counts the parked acquires that can still be granted: one
	// whose client gave up or went away is gone from it at once.
	Queue    int  `json:"queue"`
	Draining bool `json:"draining,omitempty"`
}

// AcquireRequest leases Units of Resource for Holder. WaitNS == 0 is
// the EMFILE regime: an immediate verdict, busy if the units are not
// free right now (or the FIFO queue is non-empty — no jumping).
// WaitNS > 0 parks the request server-side in FIFO order for at most
// that long (a long poll).
type AcquireRequest struct {
	Resource string `json:"resource"`
	Holder   string `json:"holder"`
	Units    int64  `json:"units"`
	WaitNS   int64  `json:"wait_ns,omitempty"`
	// QuantumNS overrides the resource's default tenure for this lease.
	QuantumNS int64 `json:"quantum_ns,omitempty"`
}

// LeaseReply is a granted lease: the epoch fences every later
// operation on it, and DeadlineNS (daemon clock, ns since start; 0 =
// unlimited) is when the server-side watchdog revokes it unless
// renewed.
type LeaseReply struct {
	Resource   string `json:"resource"`
	LeaseID    uint64 `json:"lease_id"`
	Epoch      uint64 `json:"epoch"`
	Units      int64  `json:"units"`
	QuantumNS  int64  `json:"quantum_ns,omitempty"`
	DeadlineNS int64  `json:"deadline_ns,omitempty"`
	// WaiterSeq is the FIFO position assigned when the acquire parked
	// (0 = granted immediately); GrantSeq is the resource's grant order,
	// stamped when the grant is admitted (1 for the resource's first
	// grant), not when the reply is written. Together they make the
	// daemon's FIFO discipline checkable from outside the socket: on one
	// resource, sorted by GrantSeq, parked grants' WaiterSeqs must be
	// increasing.
	WaiterSeq uint64 `json:"waiter_seq,omitempty"`
	GrantSeq  uint64 `json:"grant_seq"`
}

// ReleaseRequest returns a lease. Units rides along so an unfenced
// daemon replaying a duplicated release has something to double-free;
// a fenced daemon ignores it and trusts its own ledger. Releasing a
// claimed lease also ends its booking: the rest of the window goes
// back to the admission book at once.
type ReleaseRequest struct {
	Resource string `json:"resource"`
	LeaseID  uint64 `json:"lease_id"`
	Epoch    uint64 `json:"epoch"`
	Units    int64  `json:"units,omitempty"`
}

// RenewRequest extends a lease's tenure by ForNS (0 = one default
// quantum) from now. A lease claimed from a booking is never extended
// past the booked window's end.
type RenewRequest struct {
	Resource string `json:"resource"`
	LeaseID  uint64 `json:"lease_id"`
	Epoch    uint64 `json:"epoch"`
	ForNS    int64  `json:"for_ns,omitempty"`
}

// RenewReply reports the new deadline (daemon clock).
type RenewReply struct {
	DeadlineNS int64 `json:"deadline_ns"`
}

// ReserveRequest books Units over the window [now+StartNS,
// now+StartNS+TenureNS) against the resource's admission book. StartNS
// and TenureNS above a quarter of the int64 range (73 years) are a bad
// request. A refusal starts the holder's starvation clock, like a busy
// acquire.
type ReserveRequest struct {
	Resource string `json:"resource"`
	Holder   string `json:"holder"`
	Units    int64  `json:"units"`
	StartNS  int64  `json:"start_ns"`
	TenureNS int64  `json:"tenure_ns"`
}

// ReserveReply is a granted booking; Start/End are daemon-clock ns.
type ReserveReply struct {
	BookingID uint64 `json:"booking_id"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

// ClaimRequest converts a booking into a lease fenced at the window's
// end: the returned lease's deadline is the booking's EndNS, however
// late the claim arrives inside the window. Once the window has ended
// the booking is gone and the claim is lapsed.
type ClaimRequest struct {
	Resource  string `json:"resource"`
	BookingID uint64 `json:"booking_id"`
}

// CancelRequest forfeits an unclaimed booking, refunding its window.
type CancelRequest struct {
	Resource  string `json:"resource"`
	BookingID uint64 `json:"booking_id"`
}

// HolderStats is one holder's row in the per-resource ledger.
type HolderStats struct {
	Holder  string `json:"holder"`
	Grants  int64  `json:"grants"`
	Rejects int64  `json:"rejects"`
	Revokes int64  `json:"revokes"`
	// MaxWaitNS is the holder's longest continuous want (real ns):
	// from first unsatisfied acquire (parked or rejected) to grant.
	MaxWaitNS int64 `json:"max_wait_ns"`
	Waiting   bool  `json:"waiting,omitempty"`
}

// StatsReply is the full accounting for one resource.
type StatsReply struct {
	Resource string `json:"resource"`
	Capacity int64  `json:"capacity"`
	InUse    int64  `json:"in_use"`
	// Outstanding is the ground truth: the sum of live grants' units,
	// maintained independently of the (corruptible, when unfenced)
	// InUse bookkeeping. MaxOutstanding is its high-water mark.
	Outstanding    int64 `json:"outstanding"`
	MaxOutstanding int64 `json:"max_outstanding"`
	// Phantoms counts grants admitted while Outstanding exceeded
	// Capacity — impossible on a fenced resource, the measured failure
	// mode of an unfenced one under a duplicating channel.
	Phantoms    int64 `json:"phantoms"`
	DoubleFrees int64 `json:"double_frees"`
	Grants      int64 `json:"grants"`
	Releases    int64 `json:"releases"`
	Rejects     int64 `json:"rejects"`
	Revokes     int64 `json:"revokes"`
	Stales      int64 `json:"stales"`
	// Timeouts counts parked acquires that left the queue ungranted,
	// whatever the reason: WaitNS ran out, the client gave up or went
	// away, or a drain flushed them.
	Timeouts int64 `json:"timeouts"`
	// Admits counts bookings admitted, BookRejects bookings refused,
	// Lapses windows that ended unclaimed (counted when the window
	// ends, whether or not a late claim ever arrives).
	Admits      int64 `json:"admits"`
	BookRejects int64 `json:"book_rejects"`
	Lapses      int64 `json:"lapses"`
	// LongestWaitNS is the longest want currently in progress;
	// MaxWaitNS the longest ever (real ns).
	LongestWaitNS int64         `json:"longest_wait_ns"`
	MaxWaitNS     int64         `json:"max_wait_ns"`
	Holders       []HolderStats `json:"holders,omitempty"`
	Draining      bool          `json:"draining,omitempty"`
}
