package lease

import "repro/internal/obs"

// Hooks mirrors the Manager's ledger into observability counters. Every
// field may be nil (obs instruments are nil-safe), so an unhooked
// manager pays one pointer check per event — the same contract as the
// tracer. Install with SetHooks before the run starts.
type Hooks struct {
	// Revoked is told of each tenure the watchdog (or Lease.Revoke)
	// reclaims, so a host that keeps its own table of live leases —
	// gridd's wire ids — can drop the entry.
	Revoked func(*Lease)

	Grants   *obs.Counter // tenures granted (leased or raw)
	Rejects  *obs.Counter // TryAcquire/TryTake failures
	Timeouts *obs.Counter // waiters abandoned by cancellation
	Revokes  *obs.Counter // tenures forcibly reclaimed by the watchdog
	// RevokedUnits counts the units those revocations reclaimed: on a
	// reservation book's tenure manager this is exactly the dead-window
	// capacity (booked but revoked units) the FigRes sweep measures.
	RevokedUnits *obs.Counter
	// Wire tallies (wire.go): control messages the unreliable channel
	// swallowed or duplicated, and stale-epoch messages the fence
	// rejected.
	Drops  *obs.Counter
	Dups   *obs.Counter
	Stales *obs.Counter
}

// SetHooks installs observability counters mirroring the manager's
// ledger (engine token).
func (m *Manager) SetHooks(h Hooks) { m.hooks = h }

func (m *Manager) noteGrant()   { m.Acquires++; m.hooks.Grants.Inc() }
func (m *Manager) noteReject()  { m.Rejects++; m.hooks.Rejects.Inc() }
func (m *Manager) noteTimeout() { m.Timeouts++; m.hooks.Timeouts.Inc() }
func (m *Manager) noteRevoke(l *Lease) {
	m.Revokes++
	m.hooks.Revokes.Inc()
	m.hooks.RevokedUnits.Add(l.units)
	m.stats(l.holder).Revokes++
	if m.hooks.Revoked != nil {
		m.hooks.Revoked(l)
	}
}
func (m *Manager) noteDrop()  { m.Drops++; m.hooks.Drops.Inc() }
func (m *Manager) noteDup()   { m.Dups++; m.hooks.Dups.Inc() }
func (m *Manager) noteStale() { m.Stales++; m.hooks.Stales.Inc() }

// BookHooks mirrors the Book's admission ledger into observability
// counters; same nil-safety contract as Hooks.
type BookHooks struct {
	// Retired is told of each booking that leaves the book — canceled,
	// released, lapsed, or its claimed window ended — the Book's
	// counterpart of Hooks.Revoked.
	Retired func(*Reservation)

	Reserves *obs.Counter // bookings admitted
	Rejects  *obs.Counter // bookings refused (book full over the window)
	Admits   *obs.Counter // booked windows claimed
	Cancels  *obs.Counter // bookings canceled before a claim
	Lapses   *obs.Counter // bookings whose window ended unclaimed
}

// SetHooks installs observability counters mirroring the book's
// admission ledger (engine token).
func (b *Book) SetHooks(h BookHooks) { b.hooks = h }
