package expt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------
// The gridd backend: the paper's scenarios over a real socket
// ---------------------------------------------------------------------
//
// BackendGridd runs the same contention scenarios as sim and live, but
// the contended resources themselves live in a separate networked
// daemon (internal/gridd, cmd/gridd): carrier sense is a real GET,
// acquisition a real POST granting a fenced lease, and the watchdog
// that revokes wedged holders runs on the daemon's wall clock, not the
// client's. Client processes still run on the live engine — virtual
// time, seeded randomness, discipline code all unchanged — so a gridd
// cell is the live cell with the substrate moved across a socket.
//
// The differential harness (diff_test.go) holds these cells to the
// same qualitative claims as the other two backends: Ethernet >= Aloha
// >= Fixed ordering, the carrier floor, lease no-starvation, and
// trace-grammar well-formedness.

// BackendGridd names the networked backend: scenarios on the live
// engine, resources on a gridd daemon across a real socket.
const BackendGridd = "gridd"

// Backends lists every registered backend name, in presentation
// order. cmd/gridbench validates -backend against this list, so a new
// backend registered here is automatically accepted (and advertised)
// by the CLI.
func Backends() []string {
	return []string{BackendSim, BackendLive, BackendGridd}
}

// KnownBackend reports whether name is a registered backend. The
// empty string is the default (sim).
func KnownBackend(name string) bool {
	if name == "" {
		return true
	}
	for _, b := range Backends() {
		if b == name {
			return true
		}
	}
	return false
}

// GriddTimescale is the default compression for gridd cells: 1 virtual
// second per 40 real milliseconds. Far gentler than the in-process
// live default, because every load-bearing virtual duration must map
// to real time comfortably above the Go timer floor PLUS an HTTP
// round-trip on the loopback (see EXPERIMENTS.md, "Choosing a
// timescale for real sockets").
const GriddTimescale = 25.0

func (o Options) griddTimescale() float64 {
	if o.Timescale > 0 {
		return o.Timescale
	}
	return GriddTimescale
}

// SpawnGridd starts an in-process gridd daemon on a loopback listener:
// the same Server cmd/gridd serves, minus the process. It returns the
// base URL and a stop function that drains and closes it. Cells call
// this when Options.GriddURL is empty, so the socket-level suites need
// no external setup.
func SpawnGridd() (string, func(), error) {
	srv := gridd.NewServer(gridd.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("expt: spawn gridd: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		_ = hs.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// GriddDaemon resolves the daemon a cell talks to: an external one
// when Options.GriddURL is set, otherwise a fresh in-process spawn.
// The stop function is a no-op for external daemons.
func (o Options) GriddDaemon() (string, func(), error) {
	if o.GriddURL != "" {
		return o.GriddURL, func() {}, nil
	}
	return SpawnGridd()
}

// blocking runs fn, a wire call, with the live engine's monitor
// released: holding it across a socket round trip would stall every
// other process for the call's wall-clock duration. Every process a
// gridd cell spawns is a *live.Proc.
func blocking(p core.Proc, fn func()) { p.(*live.Proc).Blocking(fn) }

// ---------------------------------------------------------------------
// Submit scenario over the wire
// ---------------------------------------------------------------------

// Paper parameters of the wire submit cell, all per population size n:
// the schedd's descriptor table holds 6n, the Ethernet carrier
// threshold is 3n (so carrier sense keeps roughly half the table
// free), housekeeping needs n descriptors every 5 virtual seconds,
// and a crash takes the schedd down for 10 virtual seconds. A client
// submission pins 10-17 descriptors; the schedd's accept side needs 3
// more, and failing to find them is the accept() failure that crashes
// it — gridd's CrashHolder broadcast jam.
const (
	griddFDsPerN        = 6
	griddThresholdPerN  = 3
	griddScheddUnits    = 3
	griddSubmitQuantum  = 6 * time.Second
	griddHousekeepEvery = 5 * time.Second
	griddRestartDelay   = 10 * time.Second
)

// GriddSubmitResult is one wire submit cell's accounting.
type GriddSubmitResult struct {
	// Jobs counts completed submissions; Crashes the schedd's
	// broadcast jams (from the daemon's own ledger).
	Jobs    int64
	Crashes int64
	// FloorBreaches counts carrier-floor excursions longer than the
	// invariant window, observed by a monitor probing over the wire.
	// Meaningful only for the Ethernet cell.
	FloorBreaches int
	// Stats is the daemon's final per-resource accounting.
	Stats gridd.StatsReply
}

// GriddSubmitCell runs n submitters of discipline d against a
// daemon-hosted descriptor table for the window (virtual time). Every
// resource operation is a real HTTP round-trip; the engine monitor is
// released around each one, so wire waits cost the cell real time but
// no virtual time beyond what the scenario sleeps.
func GriddSubmitCell(opt Options, seed int64, n int, window time.Duration, d core.Discipline, tr *trace.Tracer) (*GriddSubmitResult, error) {
	url, stop, err := opt.GriddDaemon()
	if err != nil {
		return nil, err
	}
	defer stop()
	ts := opt.griddTimescale()
	eng := live.New(seed, ts)
	c := griddclient.New(url, ts)
	// Unique per cell, so an external shared daemon keeps cells apart.
	fds := fmt.Sprintf("fds-%s-n%d-s%d", d, n, seed)
	if err := c.CreateResource(context.Background(), gridd.CreateRequest{
		Name:                fds,
		Capacity:            int64(griddFDsPerN * n),
		QuantumNS:           int64(c.ToReal(griddSubmitQuantum)),
		HousekeepUnits:      int64(n),
		HousekeepIntervalNS: int64(c.ToReal(griddHousekeepEvery)),
		RestartDelayNS:      int64(c.ToReal(griddRestartDelay)),
		CrashHolder:         "schedd",
	}); err != nil {
		return nil, err
	}

	threshold := griddThresholdPerN * n
	ctx, cancel := eng.WithTimeout(eng.Context(), window)
	defer cancel()

	res := &GriddSubmitResult{}
	var mu sync.Mutex

	if d == core.Ethernet {
		spawnGriddFloorMonitor(eng, ctx, c, fds, threshold/2, window, &mu, &res.FloorBreaches)
	}
	for i := 0; i < n; i++ {
		var tc *trace.Client
		if tr != nil {
			tc = tr.NewClient(d.String(), fmt.Sprintf("submitter-%d", i), eng.Elapsed)
		}
		eng.Spawn(fmt.Sprintf("submitter-%d", i), func(p core.Proc) {
			griddSubmitLoop(p, ctx, c, fds, d, threshold, window, tc, &mu, &res.Jobs)
		})
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	st, err := c.Stats(context.Background(), fds)
	if err != nil {
		return nil, err
	}
	res.Stats = st
	res.Crashes = st.Crashes
	return res, nil
}

// spawnGriddFloorMonitor watches the carrier floor from outside the
// socket: probing every virtual second, it counts excursions where
// free descriptors stayed below floor for longer than the invariant
// window — the same claim chaos.Invariants.CarrierFloor makes
// in-process. Crash outages don't count: a down resource has no
// carrier to sense.
func spawnGriddFloorMonitor(eng *live.Engine, ctx context.Context, c *griddclient.Client, fds string, floor int, window time.Duration, mu *sync.Mutex, breaches *int) {
	eng.Spawn("floor-monitor", func(p core.Proc) {
		var belowSince time.Duration
		sampled, inBreach := false, false
		for ctx.Err() == nil {
			if p.Sleep(ctx, time.Second) != nil {
				return
			}
			var pr gridd.ProbeReply
			var err error
			blocking(p, func() { pr, err = c.Probe(context.Background(), fds) })
			if err != nil {
				continue
			}
			if pr.Down || pr.Free >= int64(floor) {
				sampled, inBreach = false, false
				continue
			}
			now := p.Elapsed()
			if !sampled {
				sampled, belowSince = true, now
				continue
			}
			if !inBreach && now-belowSince > invariantWindow(window) {
				inBreach = true
				mu.Lock()
				*breaches++
				mu.Unlock()
			}
		}
	})
}

// griddSubmitLoop is one submitter process: an endless sequence of
// jobs, each wrapped in the discipline's try via core.Client — the
// identical retry machinery the in-process scenarios use — with
// carrier sense and acquisition crossing the socket.
func griddSubmitLoop(p core.Proc, ctx context.Context, c *griddclient.Client, fds string, d core.Discipline, threshold int, window time.Duration, tc *trace.Client, mu *sync.Mutex, jobs *int64) {
	p.SetTracer(tc)
	deferred := core.Deferred(fds)
	sense := func(context.Context) error {
		var pr gridd.ProbeReply
		var err error
		blocking(p, func() { pr, err = c.Probe(context.Background(), fds) })
		if err != nil || pr.Down || pr.Free < int64(threshold) {
			return deferred
		}
		return nil
	}
	client := &core.Client{
		Rt:         p,
		Discipline: d,
		Limit:      core.For(window),
		Sense:      sense,
		// Cap the backoff at half a tenure quantum so a deferred client
		// re-senses within the reclamation cycle (same rationale as
		// LeaseCell's in-process backoff).
		Backoff: &core.Backoff{Base: time.Second, Cap: griddSubmitQuantum / 2, Factor: 2, RandMin: 1, RandMax: 2},
		Trace:   tc,
		Site:    fds,
		Span:    "submit",
	}
	for ctx.Err() == nil {
		err := client.Do(ctx, func(ctx context.Context) error {
			return griddSubmitOnce(p, ctx, c, tc, fds)
		})
		switch {
		case err == nil:
			mu.Lock()
			*jobs++
			mu.Unlock()
			if p.Sleep(ctx, time.Second) != nil { // think time
				return
			}
		case ctx.Err() != nil:
			return
		}
	}
}

// griddSubmitOnce is one submission attempt over the wire: pin the
// client's descriptors, pay the setup time, have the schedd's accept
// side find its own descriptors (failure crashes it — the broadcast
// jam), then the service time, then everything home.
func griddSubmitOnce(p core.Proc, ctx context.Context, c *griddclient.Client, tc *trace.Client, fds string) error {
	realQ := int64(c.ToReal(griddSubmitQuantum))
	units := int64(10 + int(p.Rand()*8)) // the submission's descriptor footprint
	var lease *griddclient.Lease
	var err error
	blocking(p, func() {
		lease, err = c.Acquire(context.Background(), gridd.AcquireRequest{
			Resource: fds, Holder: p.Name(), Units: units, QuantumNS: realQ,
		})
	})
	if err != nil {
		// Busy or down: the connection setup was wasted either way.
		// Pay it before reporting the collision, so even the Fixed
		// discipline is paced by reality, not by the socket's RTT.
		_ = p.Sleep(ctx, time.Second)
		return core.Collision(fds, err)
	}
	if tc != nil {
		tc.Acquire(fds, units)
	}
	if p.Sleep(ctx, 200*time.Millisecond) != nil { // client-side setup
		griddRetire(p, tc, lease, fds, units)
		return ctx.Err()
	}
	var sl *griddclient.Lease
	var serr error
	blocking(p, func() {
		sl, serr = c.Acquire(context.Background(), gridd.AcquireRequest{
			Resource: fds, Holder: "schedd", Units: griddScheddUnits, QuantumNS: realQ,
		})
	})
	if serr != nil {
		// The schedd could not serve the accept: the resource crashed
		// (CrashHolder) and the jam revoked our grant with everyone
		// else's. Retire it anyway — griddRetire books the revoke.
		griddRetire(p, tc, lease, fds, units)
		_ = p.Sleep(ctx, time.Second)
		return core.Collision(fds, serr)
	}
	sleepErr := p.Sleep(ctx, time.Duration(float64(1500*time.Millisecond)*(0.5+p.Rand()))) // service
	blocking(p, func() { _ = sl.Release(context.Background()) })
	griddRetire(p, tc, lease, fds, units)
	if sleepErr != nil {
		return ctx.Err()
	}
	return nil
}

// griddRetire sends the lease home and books the outcome on the trace:
// a clean release, or — when the daemon already moved past it (watchdog
// or broadcast jam) — the revoke the stale verdict proves happened.
func griddRetire(p core.Proc, tc *trace.Client, lease *griddclient.Lease, res string, units int64) {
	var err error
	blocking(p, func() { err = lease.Release(context.Background()) })
	if tc == nil {
		return
	}
	if err != nil {
		tc.Revoke(res, units)
	} else {
		tc.Release(res, units)
	}
}

// ---------------------------------------------------------------------
// Lease scenario over the wire
// ---------------------------------------------------------------------

// GriddLeaseResult is the wire lease cell's accounting; the fields
// mirror LeaseCellResult so the differential assertions read the same.
type GriddLeaseResult struct {
	Jobs      int64
	PerClient []float64
	Jain      float64
	// Revokes is the daemon watchdog's reclamation count.
	Revokes int64
	// Starved counts clients whose longest single wait for a unit
	// exceeded the no-starvation budget (virtual time, client-side).
	Starved int
	// MaxWait is the longest any client waited for a grant (virtual).
	MaxWait time.Duration
	Stats   gridd.StatsReply
}

// GriddLeaseCell runs n clients against a daemon-hosted pool of n/2
// units with the given tenure quantum (virtual): each client parks in
// the daemon's FIFO queue via long-poll rounds, holds, and releases —
// except that a quarter of tenures wedge past the deadline, so the
// daemon-side watchdog must revoke them or the whole cell starves.
// The no-starvation claim is measured client-side in virtual time
// against the same 4-quantum budget as the in-process cell.
func GriddLeaseCell(opt Options, seed int64, n int, window, quantum time.Duration, tr *trace.Tracer) (*GriddLeaseResult, error) {
	url, stop, err := opt.GriddDaemon()
	if err != nil {
		return nil, err
	}
	defer stop()
	ts := opt.griddTimescale()
	eng := live.New(seed, ts)
	c := griddclient.New(url, ts)
	pool := fmt.Sprintf("pool-n%d-s%d", n, seed)
	capacity := n / 2
	if capacity < 1 {
		capacity = 1
	}
	if err := c.CreateResource(context.Background(), gridd.CreateRequest{
		Name: pool, Capacity: int64(capacity), QuantumNS: int64(c.ToReal(quantum)),
	}); err != nil {
		return nil, err
	}
	ctx, cancel := eng.WithTimeout(eng.Context(), window)
	defer cancel()

	res := &GriddLeaseResult{PerClient: make([]float64, n)}
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		i := i
		var tc *trace.Client
		if tr != nil {
			tc = tr.NewClient("ethernet-gridd", fmt.Sprintf("submitter-%d", i), eng.Elapsed)
		}
		eng.Spawn(fmt.Sprintf("leaser-%d", i), func(p core.Proc) {
			griddLeaseLoop(p, ctx, c, pool, quantum, tc, &mu, res, i)
		})
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	st, err := c.Stats(context.Background(), pool)
	if err != nil {
		return nil, err
	}
	res.Stats = st
	res.Revokes = st.Revokes
	res.Jain = metrics.JainIndex(res.PerClient)
	return res, nil
}

// griddLeaseLoop is one client: park FIFO for a unit, then either hold
// honestly and release, or wedge past the deadline and let the
// watchdog take it back.
func griddLeaseLoop(p core.Proc, ctx context.Context, c *griddclient.Client, pool string, quantum time.Duration, tc *trace.Client, mu *sync.Mutex, res *GriddLeaseResult, idx int) {
	p.SetTracer(tc)
	budget := 4 * quantum
	realQ := int64(c.ToReal(quantum))
	for ctx.Err() == nil {
		wantSince := p.Elapsed()
		var lease *griddclient.Lease
		for lease == nil {
			if ctx.Err() != nil {
				return
			}
			var err error
			blocking(p, func() {
				lease, err = c.Acquire(context.Background(), gridd.AcquireRequest{
					Resource: pool, Holder: p.Name(), Units: 1,
					WaitNS: realQ, QuantumNS: realQ,
				})
			})
			if err != nil {
				lease = nil
				if errors.Is(err, griddclient.ErrBusy) || errors.Is(err, griddclient.ErrUnavailable) {
					continue // next long-poll round
				}
				return
			}
		}
		wait := p.Elapsed() - wantSince
		mu.Lock()
		if wait > res.MaxWait {
			res.MaxWait = wait
		}
		if wait > budget {
			res.Starved++
		}
		mu.Unlock()
		if tc != nil {
			tc.Acquire(pool, 1)
		}
		if p.Rand() < 0.25 {
			// Wedge: sleep through two quanta. The watchdog revokes at
			// one; the renew afterwards must land stale — unless timer
			// jitter kept us alive, in which case retire honestly.
			if p.Sleep(ctx, 2*quantum) != nil {
				griddRetire(p, tc, lease, pool, 1)
				return
			}
			var rerr error
			blocking(p, func() { _, rerr = lease.Renew(context.Background(), 0) })
			if rerr == nil {
				griddRetire(p, tc, lease, pool, 1)
			} else if tc != nil {
				tc.Revoke(pool, 1)
			}
		} else {
			if p.Sleep(ctx, 1500*time.Millisecond) != nil {
				griddRetire(p, tc, lease, pool, 1)
				return
			}
			griddRetire(p, tc, lease, pool, 1)
			mu.Lock()
			res.Jobs++
			res.PerClient[idx]++
			mu.Unlock()
		}
		if p.Sleep(ctx, time.Second) != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------
// Socket-level chaos: the fenced-vs-unfenced ablation over a real,
// lossy transport
// ---------------------------------------------------------------------

// GriddNetCell runs concurrent clients against a daemon-hosted
// resource through a fault-injecting RoundTripper that duplicates
// requests and drops replies — the channel-fault model applied at the
// HTTP boundary instead of inside the simulator, armed as an ordinary
// chaos.Plan at griddclient's InjectReq/InjectRep sites. With fencing
// on, a duplicated release's replay lands stale and the ledger stays
// exact; unfenced, replays double-free and admit phantom grants. The
// clients are processes on a live engine at timescale 1, so every
// duration is real and small: the claim under test is wire-protocol
// integrity, not scenario timing. It returns the daemon's final
// accounting after quiescence (every orphaned grant reclaimed by the
// watchdog).
func GriddNetCell(opt Options, seed int64, unfenced bool) (gridd.StatsReply, error) {
	url, stop, err := opt.GriddDaemon()
	if err != nil {
		return gridd.StatsReply{}, err
	}
	defer stop()
	name := fmt.Sprintf("lanes-f%v-s%d", !unfenced, seed)
	plain := griddclient.New(url, 1)
	const quantum = 60 * time.Millisecond // watchdog reclaims orphans fast
	if err := plain.CreateResource(context.Background(), gridd.CreateRequest{
		Name: name, Capacity: 4, QuantumNS: int64(quantum), Unfenced: unfenced,
	}); err != nil {
		return gridd.StatsReply{}, err
	}

	const horizon = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), horizon)
	defer cancel()
	eng := live.New(seed, 1)
	plan := chaos.Plan{Name: "gridd-net", Seed: seed, Specs: []chaos.Spec{
		chaos.MsgDup{Window: chaos.Window{Duration: horizon}, Site: griddclient.InjectReq, Prob: 0.5},
		chaos.MsgDrop{Window: chaos.Window{Duration: horizon}, Site: griddclient.InjectRep, Prob: 0.15},
	}}
	c := griddclient.New(url, 1)
	c.HTTP = &http.Client{Transport: &griddclient.FaultTripper{Inj: plan.Arm(eng, chaos.Targets{})}}

	const clients, opsPer = 6, 12
	for i := 0; i < clients; i++ {
		holder := fmt.Sprintf("c%d", i)
		eng.Spawn(holder, func(p core.Proc) {
			for j := 0; j < opsPer && ctx.Err() == nil; j++ {
				var lease *griddclient.Lease
				var err error
				blocking(p, func() {
					lease, err = c.Acquire(ctx, gridd.AcquireRequest{
						Resource: name, Holder: holder, Units: 1,
						WaitNS: int64(50 * time.Millisecond),
					})
				})
				if err != nil {
					_ = p.Sleep(ctx, 2*time.Millisecond)
					continue
				}
				_ = p.Sleep(ctx, time.Duration(1+j%3)*time.Millisecond)
				// The release itself crosses the lossy channel: this is
				// where duplication double-frees an unfenced ledger.
				blocking(p, func() { _ = lease.Release(ctx) })
				_ = p.Sleep(ctx, time.Millisecond)
			}
		})
	}
	if err := eng.Run(); err != nil {
		return gridd.StatsReply{}, err
	}

	// Quiescence: the watchdog owes us every orphan back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := plain.Stats(ctx, name)
		if err != nil {
			return st, err
		}
		if st.Outstanding == 0 || time.Now().After(deadline) {
			return st, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------
// Conformance checklist (gridbench -fig gridd)
// ---------------------------------------------------------------------

// GriddConformance runs the deterministic wire-protocol checklist
// against the daemon at url, writing one fixed "ok" line per property
// proven. The output carries no timing numbers, so gridbench can pin
// it with a golden file; any failed property returns an error naming
// it instead.
func GriddConformance(url string, w io.Writer) error {
	c := griddclient.New(url, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const name = "conformance"

	if err := c.CreateResource(ctx, gridd.CreateRequest{
		Name: name, Capacity: 2, QuantumNS: int64(time.Hour),
	}); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	pr, err := c.Probe(ctx, name)
	if err != nil || pr.Free != 2 || pr.InUse != 0 || pr.Queue != 0 {
		return fmt.Errorf("probe idle: %+v, %v", pr, err)
	}
	fmt.Fprintln(w, "ok probe: idle carrier reads all units free")

	lease, err := c.Acquire(ctx, gridd.AcquireRequest{Resource: name, Holder: "a", Units: 1})
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	if pr, err = c.Probe(ctx, name); err != nil || pr.InUse != 1 {
		return fmt.Errorf("probe after acquire: %+v, %v", pr, err)
	}
	fmt.Fprintln(w, "ok acquire: lease grants a unit and the probe sees it")

	if _, err = c.Acquire(ctx, gridd.AcquireRequest{Resource: name, Holder: "b", Units: 2}); !errors.Is(err, griddclient.ErrBusy) {
		return fmt.Errorf("immediate over-acquire = %v; want busy", err)
	}
	fmt.Fprintln(w, "ok emfile: immediate verdict on a unit shortfall")

	if err = lease.Release(ctx); err != nil {
		return fmt.Errorf("release: %w", err)
	}
	if err = lease.Release(ctx); !errors.Is(err, core.ErrStale) {
		return fmt.Errorf("duplicate release = %v; want stale", err)
	}
	fmt.Fprintln(w, "ok fencing: duplicate release lands stale")

	// Watchdog: a tenure nobody renews comes home by revocation.
	if _, err = c.Acquire(ctx, gridd.AcquireRequest{
		Resource: name, Holder: "wedged", Units: 1, QuantumNS: int64(30 * time.Millisecond),
	}); err != nil {
		return fmt.Errorf("wedged acquire: %w", err)
	}
	reclaimed := false
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		st, err := c.Stats(ctx, name)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		if st.Revokes >= 1 && st.Outstanding == 0 {
			reclaimed = true
			break
		}
	}
	if !reclaimed {
		return errors.New("watchdog never revoked the overstayed tenure")
	}
	fmt.Fprintln(w, "ok watchdog: overstayed tenure revoked server-side")

	// Admission book: a full window rejects with its shortfall, a
	// booked window claims into a lease fenced at the window's end.
	bk, err := c.Reserve(ctx, gridd.ReserveRequest{
		Resource: name, Holder: "r1", Units: 2, TenureNS: int64(10 * time.Second),
	})
	if err != nil {
		return fmt.Errorf("reserve: %w", err)
	}
	_, err = c.Reserve(ctx, gridd.ReserveRequest{
		Resource: name, Holder: "r2", Units: 1, TenureNS: int64(10 * time.Second),
	})
	if re := core.Rejection(err); re == nil || re.Shortfall != 1 {
		return fmt.Errorf("over-book = %v; want rejected, 1 short", err)
	}
	cl, err := c.Claim(ctx, gridd.ClaimRequest{Resource: name, BookingID: bk.BookingID})
	if err != nil {
		return fmt.Errorf("claim: %w", err)
	}
	if cl.DeadlineNS != bk.EndNS {
		return fmt.Errorf("claimed deadline %d != window end %d", cl.DeadlineNS, bk.EndNS)
	}
	if err = cl.Release(ctx); err != nil {
		return fmt.Errorf("claimed release: %w", err)
	}
	fmt.Fprintln(w, "ok reservation: full book rejects with shortfall; claim is window-fenced")

	st, err := c.Stats(ctx, name)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Outstanding != 0 || st.Phantoms != 0 || st.Grants != st.Releases+st.Revokes {
		return fmt.Errorf("conservation: %+v", st)
	}
	fmt.Fprintln(w, "ok conservation: every grant retired exactly once, no phantoms")
	return nil
}
