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

// Family names sampled by the flight recorder; the lease and book
// ledgers' own are in package lease (lease.MGrants, lease.MBookReserves,
// ...), beside the fields they read.
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

	MNetDrops   = "grid_net_drops_total"
	MNetDeduped = "grid_net_deduped_total"
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
	sc.CounterFunc(MEngineEvents, "Cumulative scheduling steps executed by the backend.",
		func() float64 { return float64(e.Events()) })
	if eo, ok := e.(engineObserver); ok {
		sc.GaugeFunc(MEngineRunq, "Runnable processes (live-process count on the live backend).",
			func() float64 { return float64(eo.RunQueueLen()) })
		sc.GaugeFunc(MEngineTimers, "Pending timers (canceled timers leave at once).",
			func() float64 { return float64(eo.TimerHeapLen()) })
	}
	if wo, ok := e.(wheelObserver); ok {
		sc.CounterFunc(MWheelCascades, "Timer nodes re-dispersed by wheel level cascades.",
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

// obsBook registers one reservation book's admission ledger, plus its
// embedded tenure manager under resource-tenure (whose revoked-units
// counter is exactly the dead-window capacity FigRes measures).
func obsBook(sc *obs.Scope, b *lease.Book, resource string) {
	b.Observe(sc, resource)
	b.Tenure().Observe(sc, resource+"-tenure")
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
	sc.CounterFunc(MJobs, "Jobs successfully submitted.",
		func() float64 { return float64(cl.Schedd.Jobs) })
	sc.CounterFunc(MCrashes, "Schedd crashes.",
		func() float64 { return float64(cl.Schedd.Crashes) })
	sc.CounterFunc(MNetDrops, "Submit requests or replies the channel swallowed.",
		func() float64 { return float64(cl.Schedd.NetDrops) })
	sc.CounterFunc(MNetDeduped, "Duplicate submissions the idempotency keys absorbed.",
		func() float64 { return float64(cl.Schedd.Deduped) })
	fds.Manager().Observe(sc, "fds")
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
	sc.CounterFunc(MCollisions, "Write collisions (out-of-space failures).",
		func() float64 { return float64(b.Collisions) })
	sc.CounterFunc(MCompleted, "Files written to completion.",
		func() float64 { return float64(b.Completed) })
	sc.CounterFunc(MConsumed, "Files drained by the consumer.",
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
		s.Lane().Observe(sc, s.Name)
	}
}
