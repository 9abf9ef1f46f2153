package gridd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
)

// Handler returns the daemon's HTTP surface. It is a plain
// http.Handler so cmd/gridd can hang it on a real listener and tests
// can hang it on an httptest.Server; the Server itself owns no socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /probe/{name}", s.handleProbe)
	mux.HandleFunc("POST /acquire", s.handleAcquire)
	mux.HandleFunc("POST /release", s.handleRelease)
	mux.HandleFunc("POST /renew", s.handleRenew)
	mux.HandleFunc("POST /reserve", s.handleReserve)
	mux.HandleFunc("POST /claim", s.handleClaim)
	mux.HandleFunc("POST /cancel", s.handleCancel)
	mux.HandleFunc("POST /resources", s.handleCreate)
	mux.HandleFunc("GET /stats/{name}", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// reply writes v as JSON with status 200.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// fail writes an ErrorReply with the HTTP status its code maps to.
func fail(w http.ResponseWriter, er ErrorReply) {
	status := http.StatusBadRequest
	switch er.Code {
	case CodeBusy, CodeRejected, CodeEarly:
		status = http.StatusConflict
	case CodeStale, CodeLapsed:
		status = http.StatusGone
	case CodeDown, CodeDraining:
		status = http.StatusServiceUnavailable
		if er.RetryAfterNS > 0 {
			secs := (er.RetryAfterNS + int64(time.Second) - 1) / int64(time.Second)
			w.Header().Set("Retry-After", fmt.Sprint(secs))
		}
	case CodeUnknown:
		status = http.StatusNotFound
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(er)
}

// decode parses the request body into v, reading at most 64 KiB of it:
// the largest honest body is a CreateRequest of a few hundred bytes.
func decode(w http.ResponseWriter, req *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 64<<10)).Decode(v); err != nil {
		fail(w, ErrorReply{Code: CodeBadRequest, Message: err.Error()})
		return false
	}
	return true
}

// on runs fn on the named resource with the monitor held and writes
// its verdict after letting go: JSON is never encoded under the lock.
// newWork requests are refused while the daemon drains.
func (s *Server) on(w http.ResponseWriter, name string, newWork bool, fn func(r *resource) (any, *ErrorReply)) {
	v, er := func() (any, *ErrorReply) {
		s.mon.Lock()
		defer s.mon.Unlock()
		r := s.res[name]
		switch {
		case newWork && s.draining:
			return nil, &ErrorReply{Code: CodeDraining, Message: "daemon draining"}
		case r == nil:
			return nil, &ErrorReply{Code: CodeUnknown, Message: "no such resource: " + name}
		}
		return fn(r)
	}()
	if er != nil {
		fail(w, *er)
		return
	}
	reply(w, v)
}

func (s *Server) handleProbe(w http.ResponseWriter, req *http.Request) {
	s.on(w, req.PathValue("name"), false, func(r *resource) (any, *ErrorReply) {
		return &ProbeReply{
			Resource: r.cfg.Name,
			Capacity: r.mgr.Capacity(),
			InUse:    r.mgr.InUse(),
			Free:     max(r.mgr.Free(), 0),
			Queue:    r.mgr.QueueLen(),
			Down:     r.down,
			Draining: s.draining,
		}, nil
	})
}

// busy is the refusal of an acquire with how far over the free units
// it is — at least 1: a queue that may not be jumped is busy even when
// units are free.
func (r *resource) busy(units int64, msg string) *ErrorReply {
	return &ErrorReply{Code: CodeBusy, Message: msg, Shortfall: max(units-max(r.mgr.Free(), 0), 1)}
}

func (s *Server) handleAcquire(w http.ResponseWriter, req *http.Request) {
	var ar AcquireRequest
	if !decode(w, req, &ar) {
		return
	}
	if ar.Units <= 0 {
		fail(w, ErrorReply{Code: CodeBadRequest, Message: "units must be positive"})
		return
	}
	s.on(w, ar.Resource, true, func(r *resource) (any, *ErrorReply) {
		quantum := r.cfg.Quantum
		if ar.QuantumNS > 0 {
			quantum = time.Duration(ar.QuantumNS)
		}
		if r.down {
			r.mgr.NoteWant(ar.Holder)
			return nil, &ErrorReply{Code: CodeDown, Message: "resource down", RetryAfterNS: r.retryAfter()}
		}
		if ar.WaitNS <= 0 {
			// EMFILE: an immediate verdict. The FIFO queue may not be
			// jumped, so a non-empty queue is busy even with free units.
			l, ok := r.mgr.TryAcquireFor(nil, context.Background(), ar.Holder, ar.Units, quantum)
			if !ok {
				er := r.busy(ar.Units, "no free units")
				if r.cfg.CrashHolder != "" && ar.Holder == r.cfg.CrashHolder {
					// The schedd-side accept failure: rejecting this holder
					// is the overload signal that crashes the resource.
					r.crash()
				}
				return nil, er
			}
			return r.admit(l, nil, quantum, 0), nil
		}
		// The long poll: granted at once if the units are free and nobody
		// is queued, else parked FIFO until a release or revocation pumps
		// the queue, WaitNS runs out, the client goes away, or a crash or
		// drain flushes it.
		ctx, flush := context.WithCancelCause(req.Context())
		defer flush(nil)
		ctx, cancel := context.WithTimeout(ctx, time.Duration(ar.WaitNS))
		defer cancel()
		p := &parked{r: r, flush: flush}
		l, err := r.mgr.AcquireFor(p, ctx, ar.Holder, ar.Units, quantum)
		if code, ok := context.Cause(ctx).(flushed); ok {
			if l != nil {
				// The pump admitted this waiter, then the crash or drain
				// took the lock before it woke: the jam covers its grant.
				l.Revoke()
			}
			er := &ErrorReply{Code: string(code), Message: "parked acquire failed"}
			if r.down {
				er.RetryAfterNS = r.retryAfter()
			}
			return nil, er
		}
		if err != nil {
			return nil, r.busy(ar.Units, "wait expired")
		}
		return r.admit(l, nil, quantum, p.seq), nil
	})
}

// stale is the fenced verdict on an operation whose tenure already
// ended (or never existed): the typed error core.ErrStale crosses the
// socket as.
func (r *resource) stale(epoch uint64) *ErrorReply {
	return &ErrorReply{Code: CodeStale, Message: "lease fenced", Epoch: epoch, Fence: r.mgr.Fence()}
}

func (s *Server) handleRelease(w http.ResponseWriter, req *http.Request) {
	var rr ReleaseRequest
	if !decode(w, req, &rr) {
		return
	}
	s.on(w, rr.Resource, false, func(r *resource) (any, *ErrorReply) {
		h, live := r.leases[rr.LeaseID]
		switch {
		case live && h.l.Epoch() == rr.Epoch:
			delete(r.leases, rr.LeaseID)
			if h.resv != nil {
				h.resv.Release()
			} else {
				h.l.Release()
			}
		case r.mgr.Late(max(rr.Units, 0)):
			return nil, r.stale(rr.Epoch)
		default:
			// The unfenced manager applied what arrived: a duplicated or
			// late release double-frees, corrupting InUse low. This is the
			// ablation arm — the measured hazard, not a bug.
			r.doubleFrees++
		}
		r.releases++
		return struct{}{}, nil
	})
}

func (s *Server) handleRenew(w http.ResponseWriter, req *http.Request) {
	var rn RenewRequest
	if !decode(w, req, &rn) {
		return
	}
	s.on(w, rn.Resource, false, func(r *resource) (any, *ErrorReply) {
		h, live := r.leases[rn.LeaseID]
		live = live && h.l.Epoch() == rn.Epoch
		d := time.Duration(rn.ForNS)
		switch {
		case !live:
		case h.resv != nil:
			if d <= 0 {
				d = math.MaxInt64 // a claim's default is the rest of its window
			}
			// False in the instant between the window's end and the
			// watchdog that is about to revoke the claim.
			live = h.resv.Renew(d)
		case d > 0:
			h.l.RenewFor(d)
		default:
			h.l.Renew()
		}
		if !live {
			// Nothing to extend. Unfenced there is no fence to say so
			// either: the server shrugs — the delayed-renew hazard.
			if r.mgr.Late(0) {
				return nil, r.stale(rn.Epoch)
			}
			return &RenewReply{}, nil
		}
		deadline, _ := h.l.Deadline()
		return &RenewReply{DeadlineNS: int64(deadline)}, nil
	})
}

// maxWindowNS bounds a reservation's StartNS and TenureNS. The daemon
// clock is int64 nanoseconds; a window 73 years out is a malformed
// request, and refusing it keeps now+start+tenure from wrapping.
const maxWindowNS = math.MaxInt64 / 4

func (s *Server) handleReserve(w http.ResponseWriter, req *http.Request) {
	var rr ReserveRequest
	if !decode(w, req, &rr) {
		return
	}
	// The book panics on a non-positive request: that would be our bug,
	// so what a client can cause is refused here.
	if rr.Units <= 0 || rr.TenureNS <= 0 || rr.TenureNS > maxWindowNS || rr.StartNS > maxWindowNS {
		fail(w, ErrorReply{Code: CodeBadRequest, Message: "units and tenure must be positive, start and tenure under 73 years"})
		return
	}
	s.on(w, rr.Resource, true, func(r *resource) (any, *ErrorReply) {
		start := s.mon.Elapsed() + time.Duration(max(rr.StartNS, 0))
		b, err := r.book.Reserve(nil, rr.Holder, start, time.Duration(rr.TenureNS), rr.Units)
		if err != nil {
			return nil, &ErrorReply{Code: CodeRejected, Message: "window over capacity", Shortfall: core.Rejection(err).Shortfall}
		}
		r.bookings[b.ID()] = b
		start, end := b.Window()
		return &ReserveReply{BookingID: b.ID(), StartNS: int64(start), EndNS: int64(end)}, nil
	})
}

// booking resolves a wire booking id that can still be claimed or
// canceled. An id the book issued but no longer holds has lapsed; one
// it never issued is unknown.
func (r *resource) booking(id uint64) (*lease.Reservation, *ErrorReply) {
	b := r.bookings[id]
	switch {
	case b == nil && 1 <= id && id <= uint64(r.book.Reserves):
		return nil, &ErrorReply{Code: CodeLapsed, Message: "booking retired"}
	case b == nil:
		return nil, &ErrorReply{Code: CodeUnknown, Message: "no such booking"}
	case b.Lease() != nil:
		return nil, &ErrorReply{Code: CodeBadRequest, Message: "booking already claimed"}
	}
	return b, nil
}

func (s *Server) handleClaim(w http.ResponseWriter, req *http.Request) {
	var cr ClaimRequest
	if !decode(w, req, &cr) {
		return
	}
	s.on(w, cr.Resource, false, func(r *resource) (any, *ErrorReply) {
		b, er := r.booking(cr.BookingID)
		if er != nil {
			return nil, er
		}
		now := s.mon.Elapsed()
		// The window fences the claim: the lease's deadline is the
		// booking's end, however late inside the window the claim landed.
		l, err := b.Claim(nil, context.Background())
		switch {
		case errors.Is(err, lease.ErrNotOpen):
			return nil, &ErrorReply{Code: CodeEarly, Message: "window not open yet"}
		case err != nil:
			return nil, &ErrorReply{Code: CodeLapsed, Message: "window closed"}
		}
		_, end := b.Window()
		return r.admit(l, b, end-now, 0), nil
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	var cr CancelRequest
	if !decode(w, req, &cr) {
		return
	}
	s.on(w, cr.Resource, false, func(r *resource) (any, *ErrorReply) {
		b, er := r.booking(cr.BookingID)
		if er != nil {
			return nil, er
		}
		b.Cancel()
		return struct{}{}, nil
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request) {
	var cr CreateRequest
	if !decode(w, req, &cr) {
		return
	}
	if cr.Name == "" || cr.Capacity <= 0 {
		fail(w, ErrorReply{Code: CodeBadRequest, Message: "name and positive capacity required"})
		return
	}
	s.mon.Lock()
	if s.draining {
		s.mon.Unlock()
		fail(w, ErrorReply{Code: CodeDraining, Message: "daemon draining"})
		return
	}
	s.createLocked(ResourceConfig{
		Name:              cr.Name,
		Capacity:          cr.Capacity,
		Quantum:           time.Duration(cr.QuantumNS),
		Unfenced:          cr.Unfenced,
		HousekeepUnits:    cr.HousekeepUnits,
		HousekeepInterval: time.Duration(cr.HousekeepIntervalNS),
		RestartDelay:      time.Duration(cr.RestartDelayNS),
		CrashHolder:       cr.CrashHolder,
	})
	s.mon.Unlock()
	reply(w, struct{}{})
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	s.on(w, req.PathValue("name"), false, func(r *resource) (any, *ErrorReply) { return r.stats(), nil })
}

// stats snapshots a resource's accounting: the manager's and the
// book's ledgers plus the daemon's own counters. Monitor held.
func (r *resource) stats() *StatsReply {
	m, now := r.mgr, r.srv.mon.Elapsed()
	st := &StatsReply{
		Resource:       r.cfg.Name,
		Capacity:       m.Capacity(),
		InUse:          m.InUse(),
		Outstanding:    m.Outstanding(),
		MaxOutstanding: r.maxOutstanding,
		Phantoms:       r.phantoms,
		DoubleFrees:    r.doubleFrees,
		Grants:         m.Acquires,
		Releases:       r.releases,
		Rejects:        m.Rejects,
		Revokes:        m.Revokes,
		Stales:         m.Stales,
		Timeouts:       m.Timeouts,
		Crashes:        r.crashes,
		Admits:         r.book.Reserves,
		BookRejects:    r.book.Rejects,
		Lapses:         r.book.Lapses,
		LongestWaitNS:  int64(m.LongestWait()),
		MaxWaitNS:      int64(m.MaxStarvation()),
		Down:           r.down,
		Draining:       r.srv.draining,
	}
	for _, c := range m.Clients() {
		hs := HolderStats{Holder: c.Holder, Grants: c.Grants, Rejects: c.Rejects, Revokes: c.Revokes, MaxWaitNS: int64(c.MaxWait)}
		if since, ok := c.Waiting(); ok {
			hs.Waiting = true
			hs.MaxWaitNS = max(hs.MaxWaitNS, int64(now-since))
		}
		st.Holders = append(st.Holders, hs)
	}
	sort.Slice(st.Holders, func(i, j int) bool { return st.Holders[i].Holder < st.Holders[j].Holder })
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mon.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	n := len(s.res)
	s.mon.Unlock()
	reply(w, map[string]any{
		"status":         status,
		"uptime_seconds": s.mon.Elapsed().Seconds(),
		"resources":      n,
	})
}

// handleMetrics samples every resource's families under the monitor,
// then writes the samples after letting go.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mon.Lock()
	s.sc.Sample()
	s.mon.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteProm(w)
}
