package expt

import (
	"time"

	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/replica"
)

// ---------------------------------------------------------------------
// Flight-recorder instrumentation (internal/obs wiring)
// ---------------------------------------------------------------------
//
// Every simulation cell can sample an observability registry on its
// own backend clock: engine internals (run-queue depth, timer-heap
// size, cumulative events), the carrier each scenario contends for
// (occupancy, queue depth), and the lease/book ledgers
// (grants, rejects, revocations, dead-window units). The sampler is a
// read-only timer — it draws no randomness and changes no workload
// decision — so an instrumented run produces exactly the figures an
// uninstrumented one does, and with Options.Obs nil the whole layer
// costs one pointer check per cell.
//
// Determinism contract: on the sim backend every runCells cell
// instruments a private registry which is merged into Options.Obs in
// cell order, whether the sweep ran serially or on the worker pool —
// so a -metrics dump is byte-identical at any -parallel value. Cells
// never share instrument identities: each cell's scope carries the
// cell's label, which is unique within a run (see cell.label). On the
// live backend cells instrument Options.Obs directly instead, so a
// mid-run HTTP exporter sees data as it arrives; live runs are not
// reproducible anyway.

// Family names sampled by the flight recorder.
const (
	MEngineEvents = "grid_engine_events_total"
	MEngineRunq   = "grid_engine_runq_depth"
	MEngineTimers = "grid_engine_timer_heap"

	MWheelCascades = "grid_engine_wheel_cascades_total"
	MWheelMaxSlot  = "grid_engine_wheel_slot_max"
	MWheelOverflow = "grid_engine_wheel_overflow"

	MCarrierOccupancy = "grid_carrier_occupancy"
	MCarrierInUse     = "grid_carrier_inuse"
	MCarrierQueue     = "grid_carrier_queue_depth"
	MJobs             = "grid_jobs_total"
	MCrashes          = "grid_crashes_total"

	MBufferUsed      = "grid_buffer_used_bytes"
	MBufferOccupancy = "grid_buffer_occupancy"
	MCollisions      = "grid_collisions_total"
	MCompleted       = "grid_completed_total"
	MConsumed        = "grid_consumed_total"

	MServerBusy  = "grid_server_busy"
	MServerQueue = "grid_server_queue_depth"

	MLeaseGrants       = "grid_lease_grants_total"
	MLeaseRejects      = "grid_lease_rejects_total"
	MLeaseTimeouts     = "grid_lease_timeouts_total"
	MLeaseRevokes      = "grid_lease_revokes_total"
	MLeaseInUse        = "grid_lease_units_inuse"
	MLeaseQueue        = "grid_lease_queue_depth"
	MLeaseRevokedUnits = "grid_lease_revoked_units_total"
	MLeaseDrops        = "grid_lease_msg_drops_total"
	MLeaseDups         = "grid_lease_msg_dups_total"
	MLeaseStales       = "grid_lease_stale_total"

	MNetDrops   = "grid_net_drops_total"
	MNetDeduped = "grid_net_deduped_total"

	MBookReserves = "grid_book_reserves_total"
	MBookRejects  = "grid_book_rejects_total"
	MBookAdmits   = "grid_book_admits_total"
	MBookCancels  = "grid_book_cancels_total"
	MBookLapses   = "grid_book_lapses_total"
)

// DefaultObsInterval is the default sampling interval on the backend
// clock (virtual time): the same 5s cadence the paper's timeline
// figures use.
const DefaultObsInterval = 5 * time.Second

func (o Options) obsInterval() time.Duration {
	if o.ObsInterval <= 0 {
		return DefaultObsInterval
	}
	return o.ObsInterval
}

// engineObserver is the backend surface the engine gauges poll; both
// sim.RT and *live.Engine satisfy it.
type engineObserver interface {
	RunQueueLen() int
	TimerHeapLen() int
}

// wheelObserver is the sim engine's hierarchical-timer-wheel health
// surface; the live backend has no wheel and simply lacks it.
type wheelObserver interface {
	WheelCascades() int64
	MaxSlotOccupancy() int
	TimerOverflowLen() int
}

// armObs builds a cell's instrumentation scope — the engine gauges
// plus whatever scenario gauges inst registers, all under the cell's
// label — and schedules the periodic sampler on the backend clock for
// the window. The returned finish func must be called after the
// backend's Run returns: it takes the final sample, so end-of-run totals
// are always recorded. With no registry armed, armObs is a no-op
// returning a no-op.
func armObs(c cell, e core.Backend, inst func(sc *obs.Scope)) func() {
	if c.reg == nil {
		return func() {}
	}
	sc := c.reg.NewScope(e.Elapsed, "cell", c.label)
	sc.GaugeFunc(MEngineEvents, "Cumulative scheduling steps executed by the backend.",
		func() float64 { return float64(e.Events()) })
	if eo, ok := e.(engineObserver); ok {
		sc.GaugeFunc(MEngineRunq, "Runnable processes (live-process count on the live backend).",
			func() float64 { return float64(eo.RunQueueLen()) })
		sc.GaugeFunc(MEngineTimers, "Pending timers (canceled timers leave at once).",
			func() float64 { return float64(eo.TimerHeapLen()) })
	}
	if wo, ok := e.(wheelObserver); ok {
		sc.GaugeFunc(MWheelCascades, "Timer nodes re-dispersed by wheel level cascades.",
			func() float64 { return float64(wo.WheelCascades()) })
		sc.GaugeFunc(MWheelMaxSlot, "High-water mark of timers sharing one wheel slot.",
			func() float64 { return float64(wo.MaxSlotOccupancy()) })
		sc.GaugeFunc(MWheelOverflow, "Timers parked beyond the wheel horizon.",
			func() float64 { return float64(wo.TimerOverflowLen()) })
	}
	if inst != nil {
		inst(sc)
	}
	interval := c.opt.obsInterval()
	var tick func()
	tick = func() {
		sc.Sample()
		if e.Elapsed() < c.window {
			e.Schedule(interval, tick)
		}
	}
	e.Schedule(0, tick)
	return func() { sc.Sample() }
}

// obsLease registers the ledger counters and occupancy gauges for one
// lease manager under the resource label.
func obsLease(sc *obs.Scope, m *lease.Manager, resource string) {
	m.SetHooks(lease.Hooks{
		Grants:       sc.Counter(MLeaseGrants, "Tenures granted (leased or raw).", "resource", resource),
		Rejects:      sc.Counter(MLeaseRejects, "Try-acquire failures.", "resource", resource),
		Timeouts:     sc.Counter(MLeaseTimeouts, "Waiters abandoned by cancellation.", "resource", resource),
		Revokes:      sc.Counter(MLeaseRevokes, "Tenures reclaimed by the expiry watchdog.", "resource", resource),
		RevokedUnits: sc.Counter(MLeaseRevokedUnits, "Units reclaimed by revocation (dead-window capacity).", "resource", resource),
		Drops:        sc.Counter(MLeaseDrops, "Lease-control messages the channel dropped.", "resource", resource),
		Dups:         sc.Counter(MLeaseDups, "Lease-control messages the channel duplicated.", "resource", resource),
		Stales:       sc.Counter(MLeaseStales, "Stale-epoch messages the fence rejected.", "resource", resource),
	})
	sc.GaugeFunc(MLeaseInUse, "Units currently held.",
		func() float64 { return float64(m.InUse()) }, "resource", resource)
	sc.GaugeFunc(MLeaseQueue, "Processes waiting to acquire.",
		func() float64 { return float64(m.QueueLen()) }, "resource", resource)
}

// obsBook registers the admission ledger for one reservation book,
// plus its embedded tenure manager (whose revoked-units counter is
// exactly the dead-window capacity FigRes measures).
func obsBook(sc *obs.Scope, b *lease.Book, resource string) {
	b.SetHooks(lease.BookHooks{
		Reserves: sc.Counter(MBookReserves, "Bookings admitted.", "resource", resource),
		Rejects:  sc.Counter(MBookRejects, "Bookings refused (book full over the window).", "resource", resource),
		Admits:   sc.Counter(MBookAdmits, "Booked windows claimed.", "resource", resource),
		Cancels:  sc.Counter(MBookCancels, "Bookings canceled before a claim.", "resource", resource),
		Lapses:   sc.Counter(MBookLapses, "Bookings whose window ended unclaimed.", "resource", resource),
	})
	obsLease(sc, b.Tenure(), resource+"-tenure")
}

// obsCluster registers the submit scenario's carrier: the kernel FD
// table is the shared medium, so its occupancy is the figure-2-style
// "carrier occupancy vs time" observable.
func obsCluster(sc *obs.Scope, cl *condor.Cluster) {
	fds := cl.FDs
	sc.GaugeFunc(MCarrierOccupancy, "Fraction of the carrier's units in use (FD table).",
		func() float64 {
			c := fds.Capacity()
			if c == 0 {
				return 0
			}
			return float64(fds.InUse()) / float64(c)
		})
	sc.GaugeFunc(MCarrierInUse, "Carrier units in use (FD table).",
		func() float64 { return float64(fds.InUse()) })
	sc.GaugeFunc(MCarrierQueue, "Processes queued on the carrier (FD table).",
		func() float64 { return float64(fds.Manager().QueueLen()) })
	sc.GaugeFunc(MJobs, "Jobs successfully submitted.",
		func() float64 { return float64(cl.Schedd.Jobs) })
	sc.GaugeFunc(MCrashes, "Schedd crashes.",
		func() float64 { return float64(cl.Schedd.Crashes) })
	sc.GaugeFunc(MNetDrops, "Submit requests or replies the channel swallowed.",
		func() float64 { return float64(cl.Schedd.NetDrops) })
	sc.GaugeFunc(MNetDeduped, "Duplicate submissions the idempotency keys absorbed.",
		func() float64 { return float64(cl.Schedd.Deduped) })
	obsLease(sc, fds.Manager(), "fds")
}

// obsBuffer registers the buffer scenario's carrier: shared disk
// space, plus the throughput and collision counters both figures plot.
func obsBuffer(sc *obs.Scope, b *fsbuffer.Buffer) {
	sc.GaugeFunc(MBufferOccupancy, "Fraction of the buffer in use (carrier occupancy).",
		func() float64 {
			c := b.Capacity()
			if c == 0 {
				return 0
			}
			return float64(b.Used()) / float64(c)
		})
	sc.GaugeFunc(MBufferUsed, "Bytes in the buffer, complete and partial.",
		func() float64 { return float64(b.Used()) })
	sc.GaugeFunc(MCollisions, "Write collisions (out-of-space failures).",
		func() float64 { return float64(b.Collisions) })
	sc.GaugeFunc(MCompleted, "Files written to completion.",
		func() float64 { return float64(b.Completed) })
	sc.GaugeFunc(MConsumed, "Files drained by the consumer.",
		func() float64 { return float64(b.Consumed) })
}

// obsServers registers the reader scenario's carrier: each replica
// server's single service lane, one labeled child per server.
func obsServers(sc *obs.Scope, servers []*replica.Server) {
	for _, s := range servers {
		s := s
		sc.GaugeFunc(MServerBusy, "Whether the server's service lane is held (1) or free (0).",
			func() float64 {
				if s.Busy() {
					return 1
				}
				return 0
			}, "server", s.Name)
		sc.GaugeFunc(MServerQueue, "Clients queued on the server's service lane.",
			func() float64 { return float64(s.QueueLen()) }, "server", s.Name)
		obsLease(sc, s.Lane(), s.Name)
	}
}
