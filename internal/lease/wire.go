package lease

import (
	"time"

	"repro/internal/core"
)

// This file models the channel between lease holders and the manager
// as an unreliable medium. With no wire installed (the default, and
// every legacy scenario) nothing here runs and the manager's behavior
// is byte-identical to before. With a wire, lease control messages —
// the grant acknowledgement, renewals, and releases — consult the
// installed injector at one site and may be dropped, duplicated, or
// delayed, which is the paper's connectivity-layer failure regime.
//
// The defense is fencing: every grant carries a monotone epoch, and
// the manager retires epochs as tenures end. A fenced manager refuses
// any control message whose epoch it has already retired (a duplicated
// release, a delayed release arriving after the watchdog revoked the
// tenure), so its books can never be double-freed and admission can
// never exceed true capacity. An unfenced manager applies whatever
// arrives — the ablation arm that demonstrates why fencing matters.

// wire is the unreliable channel configuration for one manager.
type wire struct {
	inj    core.Injector
	site   string
	fenced bool
}

// SetWire routes this manager's lease control messages through the
// injector at the named site. fenced selects whether the manager
// defends itself with epoch fencing (the survivable configuration) or
// naively applies every message that arrives (the ablation arm). A nil
// injector removes the wire.
func (m *Manager) SetWire(inj core.Injector, site string, fenced bool) {
	if inj == nil {
		m.wire = nil
		return
	}
	m.wire = &wire{inj: inj, site: site, fenced: fenced}
}

// Fenced reports whether a wire is installed with epoch fencing on.
func (m *Manager) Fenced() bool { return m.wire != nil && m.wire.fenced }

// Outstanding returns the ground-truth units genuinely in use by live
// holders. Unlike Sense().InUse (the manager's books, which a lossy wire can
// corrupt on the unfenced arm), it is maintained purely by lease
// lifecycle: +units at grant, -units exactly once when the holder
// stops (release sent, or watchdog cancellation). The
// no-double-allocation invariant is Outstanding() <= Sense().Capacity.
func (m *Manager) Outstanding() int64 { return m.outstanding }

// Fence returns the highest epoch the manager has retired.
func (m *Manager) Fence() uint64 { return m.fence }

// retire records that a tenure with the given epoch has ended
// manager-side; later messages carrying it are stale.
func (m *Manager) retire(epoch uint64) {
	if epoch > m.fence {
		m.fence = epoch
	}
}

// releaseLoose is release without the underflow panic: the unfenced
// arm's double-free path. The clamp keeps the simulation running so
// the invariant checker — not a panic — reports the over-admission
// that follows.
func (m *Manager) releaseLoose(units int64) {
	if units > m.inUse {
		units = m.inUse
	}
	m.inUse -= units
	m.grantWaiters()
}

// Late is the manager's verdict on a control message for a tenure that
// has already ended — a duplicated release, or one that arrives after
// the watchdog revoked the tenure — claiming to return units (0 for a
// renewal). Fenced, the retired epoch is refused and counted as a
// stale; unfenced, the manager applies what arrived and frees units it
// no longer holds for that tenure, which is the double-allocation
// hazard the ablation measures.
func (m *Manager) Late(units int64) (fenced bool) {
	if m.Fenced() {
		m.Stales++
		return true
	}
	m.releaseLoose(units)
	return false
}

// Epoch returns the lease's fencing epoch (a stale handle's too).
func (l Lease) Epoch() uint64 { return l.epoch }

// grant delivers the grant acknowledgement over the wire. A duplicated
// grant message is a retransmitted acquire reaching the manager twice:
// fenced, the epoch dedupes the copy; unfenced, the manager books a
// second, holderless tenure. The phantom pins capacity until the
// watchdog notices nobody is renewing it (one quantum), or forever on
// a quantum-0 manager — which is why partitions need tenure quanta.
func (w *wire) grant(r *record) {
	m := r.m
	f := core.InjectAt(w.inj, w.site)
	if !f.Dup {
		return
	}
	m.Dups++
	r.tr.MsgDup(m.name)
	if w.fenced {
		m.Stales++
		r.tr.Stale(m.name, r.units)
		return
	}
	m.inUse += r.units // phantom duplicate booking
	if m.quantum > 0 {
		units := r.units
		m.eng.Schedule(m.quantum, func() { m.releaseLoose(units) })
	}
}

// renew carries a renewal message over the wire, reporting whether the
// wire consumed it (the caller then skips the local extension).
func (w *wire) renew(r *record, d time.Duration) bool {
	m := r.m
	f := core.InjectAt(w.inj, w.site)
	switch {
	case f.Drop || f.Err != nil:
		// Lost: the holder believes it renewed; the watchdog does not.
		m.Drops++
		r.tr.MsgDrop(m.name)
		return true
	case f.Delay > 0:
		// Late: the extension lands Delay later — unless the watchdog
		// fires first, in which case the renewal is stale. The delivery
		// must not touch inFlight: that flag belongs to a delayed
		// release, and clearing it here would let a release delivery
		// scheduled in the meantime return without freeing the books —
		// a permanent phantom booking.
		r.owed++ // the record stays out of the free list until delivery
		m.eng.Schedule(f.Delay, func() {
			r.owed--
			if r.done || r.revoked {
				if w.fenced {
					m.Stales++
					r.tr.Stale(m.name, r.units)
				}
				// Unfenced: renewing a dead tenure re-arms nothing —
				// the units were already reclaimed. No resurrection.
				return
			}
			r.extend(d)
		})
		return true
	case f.Dup:
		// A duplicated renewal is idempotent — both copies set the same
		// deadline — so apply once and count the copy.
		m.Dups++
		r.tr.MsgDup(m.name)
		return false
	}
	return false
}

// release carries the release message over the wire, reporting whether
// the wire consumed it (the caller then skips the local release). The
// caller has already marked the lease done and returned the units to
// the ground-truth ledger: whatever happens below is about the
// manager's books, not about reality.
func (w *wire) release(r *record) bool {
	m := r.m
	f := core.InjectAt(w.inj, w.site)
	switch {
	case f.Drop || f.Err != nil:
		// Lost: the manager never hears the end. The watchdog (if any)
		// reclaims the units at the old deadline; without one the units
		// leak — which is why partitions need tenure quanta.
		m.Drops++
		r.tr.MsgDrop(m.name)
		r.lost = true
		r.endCtx()
		return true
	case f.Delay > 0:
		// In flight: delivery lands Delay later. If the watchdog
		// revokes the tenure first, the delivery arrives stale: the
		// fence rejects it; an unfenced manager double-frees.
		r.inFlight = true
		r.endCtx()
		m.eng.Schedule(f.Delay, func() { w.deliverRelease(r) })
		return true
	case f.Dup:
		// Delivered twice: apply the first copy normally, then the
		// duplicate. The fence rejects the copy as stale; an unfenced
		// manager double-frees — the double-allocation seed.
		if r.watched {
			r.alarm.Stop()
		}
		r.endCtx()
		m.retire(r.epoch)
		m.release(r.units)
		r.tr.Release(m.name, r.units)
		m.Dups++
		r.tr.MsgDup(m.name)
		if m.Late(r.units) {
			r.tr.Stale(m.name, r.units)
		}
		m.recycle(r)
		return true
	}
	return false
}

// deliverRelease is the late arrival of a delayed release message.
func (w *wire) deliverRelease(r *record) {
	m := r.m
	if !r.inFlight {
		return
	}
	r.inFlight = false
	if r.revoked {
		// The watchdog beat the delivery: the tenure was revoked and
		// the units already reclaimed. Fenced, the stale epoch is
		// rejected; unfenced, the manager frees units it no longer
		// holds for this tenure — over-admission follows.
		if m.Late(r.units) {
			r.tr.Stale(m.name, r.units)
		}
		return
	}
	if r.watched {
		r.alarm.Stop()
	}
	m.retire(r.epoch)
	m.release(r.units)
	r.tr.Release(m.name, r.units)
	m.recycle(r) // delivered: the wire holds the record no longer
}
