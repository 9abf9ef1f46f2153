package expt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
	"repro/internal/live"
)

// ---------------------------------------------------------------------
// The gridd backend: the paper's scenarios over a real socket
// ---------------------------------------------------------------------
//
// BackendGridd runs the same submit and lease scenarios as sim and
// live, the same code, but the FD table they contend for lives in a
// separate networked daemon (internal/gridd, cmd/gridd): carrier sense
// is a real GET, acquisition a real POST granting a fenced lease, and
// the watchdog that revokes wedged holders runs on the daemon's wall
// clock. The table's carrier is a griddclient.Carrier (cell.carrier);
// the schedd, its service slots and the clients stay on a live engine
// at GriddTimescale, so a gridd cell is the live cell with the FD table
// moved across a socket.
//
// The differential harness (diff_test.go) holds these cells to the
// same qualitative claims as the other two backends: Ethernet >= Aloha
// >= Fixed ordering, the carrier floor, lease no-starvation, and
// trace-grammar well-formedness.

// BackendGridd names the networked backend: scenarios on the live
// engine, the FD table on a gridd daemon across a real socket.
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
				eng.Blocking(func() {
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
				eng.Blocking(func() { _ = lease.Release(ctx) })
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
