package expt

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/fsbuffer"
	"repro/internal/replica"
	"repro/internal/trace"
)

// The differential harness: every paper scenario runs on both backends
// — the deterministic simulator and the live wall-clock engine — across
// several seeds, and the same qualitative claims must hold on each.
// Sim runs are byte-reproducible, so they get exact assertions
// elsewhere (expt_test.go, the gridbench goldens); here both backends
// are held to ordering claims with tolerance bands, because a live run
// is a real concurrent execution whose interleaving the seed does not
// pin. Every cell's trace additionally passes the causal
// well-formedness checker (trace.Check): whatever the scheduler did,
// each client's own timeline must follow the discipline grammar.
//
// `go test ./internal/expt -run TestDiff -count=1` runs exactly these
// tests.

// diffTimescale compresses live-backend time for the harness: 1 virtual
// second per 0.5 real milliseconds. Higher compression would shave CI
// seconds but squeezes virtual-time gaps (backoff quanta, lease
// renewal slack) toward the scheduler's jitter floor.
const diffTimescale = 2000

// Scenario-specific compression. A timescale is only faithful while
// the scenario's smallest load-bearing virtual duration still maps to
// real time comfortably above the Go timer granularity (~1.25ms on a
// typical host):
//
//   - the paper's buffer scenario works in 64 KB chunks, ~21ms of
//     virtual time each, so any useful compression lands every chunk
//     in timer-jitter territory and throughput collapses for all
//     disciplines alike — the differential buffer cell below therefore
//     runs a coarse-grained variant (8 MB chunks, 500ms+ durations)
//     with identical parameters on both backends;
//   - the submit scenario's backoff base is 1s virtual, which must not
//     compress below the floor or Ethernet's politeness turns into
//     lost throughput;
//   - the lease watchdog's quantum is 12s virtual, and at timescale
//     2000 a single 1ms timer overshoot reads as 2s of virtual
//     starvation, eroding the 4-quantum no-starvation budget. The
//     budget is a hard liveness claim, so this scenario gets the most
//     real time per virtual second (the race detector multiplies the
//     jitter, and CI runs this harness under -race too).
//
// See EXPERIMENTS.md ("Choosing a timescale").
const (
	submitTimescale = 200
	bufferTimescale = 100
	leaseTimescale  = 100
)

// diffSeeds are the seeds every differential scenario sweeps.
var diffSeeds = []int64{1, 2, 3}

// diffBackends returns one Options per backend under test.
func diffBackends() []Options {
	return []Options{
		{Backend: BackendSim},
		{Backend: BackendLive, Timescale: diffTimescale},
	}
}

// forEachDiff fans a scenario out over backends × seeds as subtests.
func forEachDiff(t *testing.T, fn func(t *testing.T, opt Options, seed int64)) {
	for _, opt := range diffBackends() {
		opt := opt
		name := opt.Backend
		if name == "" {
			name = BackendSim
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range diffSeeds {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					fn(t, opt, seed)
				})
			}
		})
	}
}

// atLeast asserts got >= want*(1-tol): the ordering claim with a
// tolerance band absorbing live-run scheduling noise.
func atLeast(t *testing.T, what string, got, want float64, tol float64) {
	t.Helper()
	if got < want*(1-tol) {
		t.Errorf("%s: got %v, want >= %v within %v%%", what, got, want, tol*100)
	}
}

// checkTrace runs the causal well-formedness oracle on a cell's trace.
func checkTrace(t *testing.T, tr *trace.Tracer) {
	t.Helper()
	if err := trace.Check(tr); err != nil {
		t.Errorf("trace not well-formed: %v", err)
	}
	if tr.Len() == 0 {
		t.Error("cell emitted no trace events")
	}
}

// TestDiffSubmitOrdering runs the job-submission scenario (Figures 1-3)
// at an over-threshold population on every backend: Ethernet must beat
// Aloha, Aloha must beat Fixed, and the Ethernet cell must hold the
// carrier floor (the invariant suite samples free FDs throughout).
//
// The gridd arm runs its own cells (griddSubmitArm: 12
// submitters, a 40 s window) with the FD table on a daemon on the cell's
// engine, every sense, acquire, renew and release a round trip through
// the daemon's codec. The codec is the only difference from a sim cell,
// so each gridd cell must equal the sim cell of the same configs and
// seed, and is held to the ordering claims exactly, seed by seed.
func TestDiffSubmitOrdering(t *testing.T) {
	forEachDiff(t, func(t *testing.T, opt Options, seed int64) {
		opt.Scale = 0.2
		if opt.Backend == BackendLive {
			opt.Timescale = submitTimescale
		}
		window := opt.scaleD(SubmitWindow)
		n := opt.scaleN(475) // well past the collapse point
		jobs := map[core.Discipline]float64{}
		var ethRec chaos.Recorder
		for _, d := range core.Disciplines {
			tr := trace.New()
			var rec *chaos.Recorder
			if d == core.Ethernet {
				rec = &ethRec
			}
			opt.Trace = tr
			j := submitCell(opt.cell("submit", seed, window, nil, rec), n, scaledArm(opt, d)).cl.Schedd.Jobs
			checkTrace(t, tr)
			jobs[d] = float64(j)
		}
		t.Logf("jobs at n=%d: Ethernet=%v Aloha=%v Fixed=%v",
			n, jobs[core.Ethernet], jobs[core.Aloha], jobs[core.Fixed])
		if jobs[core.Ethernet] == 0 {
			t.Fatal("Ethernet submitted nothing")
		}
		atLeast(t, "Ethernet >= Aloha jobs", jobs[core.Ethernet], jobs[core.Aloha], 0.15)
		atLeast(t, "Aloha >= Fixed jobs", jobs[core.Aloha], jobs[core.Fixed], 0.15)
		// The headline gap: carrier sense keeps the system out of
		// congestion collapse, so Ethernet clears Fixed by a wide margin.
		atLeast(t, "Ethernet >= 2x Fixed jobs", jobs[core.Ethernet], 2*jobs[core.Fixed], 0)
		if !ethRec.Ok() {
			t.Errorf("Ethernet invariants violated: %v", ethRec.Err())
		}
	})
	t.Run(BackendGridd, func(t *testing.T) {
		const n = 12
		window := 40 * time.Second
		for _, seed := range diffSeeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				jobs := map[core.Discipline]float64{}
				for _, d := range core.Disciplines {
					a := griddSubmitArm(n, window, d)
					tr := trace.New()
					var got, want chaos.Recorder
					sd := submitCell(Options{Backend: BackendGridd, Trace: tr}.cell("submit", seed, window, nil, &got), n, a).cl.Schedd
					checkTrace(t, tr)
					simSd := submitCell(Options{}.cell("submit", seed, window, nil, &want), n, a).cl.Schedd
					j, crashes, simJ, simCrashes := sd.Jobs, sd.Crashes, simSd.Jobs, simSd.Crashes
					t.Logf("%s: jobs=%d crashes=%d violations=%d", d, j, crashes, len(got.Violations))
					if j != simJ || crashes != simCrashes || !slices.Equal(got.Violations, want.Violations) {
						t.Errorf("%s: gridd cell (jobs %d, crashes %d, violations %v) differs from the sim cell (%d, %d, %v)",
							d, j, crashes, got.Violations, simJ, simCrashes, want.Violations)
					}
					if !got.Ok() {
						t.Errorf("%s invariants violated: %v", d, got.Err())
					}
					jobs[d] = float64(j)
				}
				if jobs[core.Ethernet] == 0 {
					t.Fatal("Ethernet submitted nothing over the wire")
				}
				atLeast(t, "Ethernet >= Aloha jobs", jobs[core.Ethernet], jobs[core.Aloha], 0)
				atLeast(t, "Aloha >= Fixed jobs", jobs[core.Aloha], jobs[core.Fixed], 0)
				atLeast(t, "Ethernet >= 2x Fixed jobs", jobs[core.Ethernet], 2*jobs[core.Fixed], 0)
			})
		}
	})
}

// griddSubmitArm is the gridd submit arm's parameters for n
// submitters of discipline d, all per n: a descriptor table of 6n, an
// Ethernet threshold of 3n (carrier sense keeps about half the table
// free), housekeeping that needs n descriptors every 5 virtual seconds
// and a 10-second restart after a crash. A submission pins 10-17
// descriptors and the schedd 3 more; the backoff is capped at 3 s, so a
// deferred client re-senses often in a short window.
func griddSubmitArm(n int, window time.Duration, d core.Discipline) submitArm {
	return submitArm{
		sub: condor.SubmitterConfig{
			Discipline: d,
			TryLimit:   window,
			Threshold:  3 * n,
			ThinkTime:  time.Second,
			Backoff:    &core.Backoff{Base: time.Second, Cap: 3 * time.Second, Factor: 2, RandMin: 1, RandMax: 2},
		},
		cluster: condor.Config{
			FDCapacity:        6 * n,
			ClientFDs:         10,
			ClientFDJitter:    7,
			SetupTime:         200 * time.Millisecond,
			ServiceSlots:      n,
			ServiceJitter:     0.5,
			ConnectFailTime:   time.Second,
			RestartDelay:      10 * time.Second,
			HousekeepFDs:      n,
			HousekeepInterval: 5 * time.Second,
		},
	}
}

// diffBufferCell is the differential harness's coarse-grained buffer
// cell: the same producer/consumer contention as Figures 4-5, but with
// every load-bearing duration at 500ms of virtual time or more, so a
// compressed live run stays above the timer-jitter floor. Both
// backends run these exact parameters.
func diffBufferCell(opt Options, seed int64, n int, window time.Duration, d core.Discipline, tr *trace.Tracer) *fsbuffer.Buffer {
	e := opt.newEngine(seed)
	b := fsbuffer.New(e, fsbuffer.Config{
		Capacity:     120 * fsbuffer.MB,
		WriteChunk:   8 * fsbuffer.MB, // 500ms of server time per chunk
		WriteRate:    16 * fsbuffer.MB,
		DrainRate:    8 * fsbuffer.MB,
		MetaTime:     500 * time.Millisecond,
		ScanInterval: time.Second,
		FailTime:     time.Second,
	})
	ctx, cancel := e.WithTimeout(e.Context(), window)
	defer cancel()
	e.Spawn("consumer", func(p core.Proc) { b.Consumer(p, ctx) })
	for j := 0; j < n; j++ {
		j := j
		cfg := fsbuffer.DefaultProducerConfig(d)
		cfg.MaxFileSize = 32 * fsbuffer.MB // 1-4 chunks per file
		if tr != nil {
			cfg.Trace = tr.NewClient(d.String(), fmt.Sprintf("producer-%d", j), e.Elapsed)
		}
		e.Spawn("producer", func(p core.Proc) {
			var pr fsbuffer.Producer
			pr.Loop(p, ctx, b, j, cfg)
		})
	}
	if err := e.Run(); err != nil {
		panic("expt: " + err.Error())
	}
	return b
}

// TestDiffBufferOrdering runs the shared-buffer scenario (Figures 4-5)
// at a contended producer count on both backends: Ethernet consumes the
// most, and collisions order Fixed >= Aloha >= Ethernet.
func TestDiffBufferOrdering(t *testing.T) {
	forEachDiff(t, func(t *testing.T, opt Options, seed int64) {
		if opt.Backend == BackendLive {
			opt.Timescale = bufferTimescale
		}
		window := 2 * time.Minute
		n := 20
		consumed := map[core.Discipline]float64{}
		collisions := map[core.Discipline]float64{}
		for _, d := range core.Disciplines {
			tr := trace.New()
			b := diffBufferCell(opt, seed, n, window, d, tr)
			checkTrace(t, tr)
			consumed[d] = float64(b.Consumed)
			collisions[d] = float64(b.Collisions)
		}
		t.Logf("consumed: E=%v A=%v F=%v  collisions: E=%v A=%v F=%v",
			consumed[core.Ethernet], consumed[core.Aloha], consumed[core.Fixed],
			collisions[core.Ethernet], collisions[core.Aloha], collisions[core.Fixed])
		if consumed[core.Ethernet] == 0 {
			t.Fatal("Ethernet consumed nothing")
		}
		atLeast(t, "Ethernet >= Aloha consumed", consumed[core.Ethernet], consumed[core.Aloha], 0.15)
		atLeast(t, "Ethernet >= Fixed consumed", consumed[core.Ethernet], consumed[core.Fixed], 0.15)
		atLeast(t, "Fixed >= Aloha collisions", collisions[core.Fixed], collisions[core.Aloha], 0.15)
		atLeast(t, "Aloha >= Ethernet collisions", collisions[core.Aloha], collisions[core.Ethernet], 0.15)
		// Carrier sense must do real work, not merely tie: Fixed pays at
		// least double Ethernet's collision bill.
		atLeast(t, "Fixed >= 2x Ethernet collisions", collisions[core.Fixed], 2*collisions[core.Ethernet], 0)
	})
}

// TestDiffReaderOrdering runs the black-hole scenario (Figures 6-7) on
// both backends: Ethernet transfers at least as much as Aloha and all
// but avoids black-hole collisions, deferring instead.
func TestDiffReaderOrdering(t *testing.T) {
	forEachDiff(t, func(t *testing.T, opt Options, seed int64) {
		opt.Scale = 0.2
		window := opt.scaleD(ReaderWindow)
		run := func(d core.Discipline) *ReaderTimeline {
			rcfg := replica.DefaultReaderConfig(d)
			rcfg.OuterLimit = window
			tr := trace.New()
			opt.Trace = tr
			tl := readerCell(opt.cell("reader", seed, window, nil, nil), rcfg)
			checkTrace(t, tr)
			return tl
		}
		eth := run(core.Ethernet)
		aloha := run(core.Aloha)
		t.Logf("transfers: E=%d A=%d  collisions: E=%d A=%d  deferrals: E=%d",
			eth.TotalTransfers, aloha.TotalTransfers,
			eth.TotalCollisions, aloha.TotalCollisions, eth.TotalDeferrals)
		if eth.TotalTransfers == 0 {
			t.Fatal("Ethernet transferred nothing")
		}
		atLeast(t, "Ethernet >= Aloha transfers",
			float64(eth.TotalTransfers), float64(aloha.TotalTransfers), 0.15)
		if eth.TotalDeferrals == 0 {
			t.Error("Ethernet never deferred: carrier sense inactive")
		}
		// The sim is exactly collision-free; a live run may book a stray
		// collision when compressed-time jitter expires a transfer lease.
		if max := collisionBudget(opt); eth.TotalCollisions > max {
			t.Errorf("Ethernet collisions = %d, want <= %d", eth.TotalCollisions, max)
		}
	})
}

// collisionBudget is the Ethernet reader's allowed black-hole
// collisions: zero in the simulator, a whisker above on the live
// backend.
func collisionBudget(opt Options) int64 {
	if opt.Backend == BackendLive {
		return 2
	}
	return 0
}

// TestDiffReservationRegimes runs the reservation-vs-Ethernet cells on
// both backends, both regimes. Fault-free, admission control must win
// (and structurally cannot crash the schedd: the client descriptor
// share lives in the book, not the FD table); under the res-flap plan
// it must collapse below Ethernet, because the book keeps charging for
// wedged holders' windows until each boundary. Every cell's trace runs
// the causal checker, which now enforces the reserve → admit/reject
// grammar for the fourth discipline.
func TestDiffReservationRegimes(t *testing.T) {
	forEachDiff(t, func(t *testing.T, opt Options, seed int64) {
		if opt.Backend == BackendLive {
			opt.Timescale = leaseTimescale
		}
		window := 2 * time.Minute
		const n = 20
		quantum := leaseQuantum(window)
		run := func(plan *chaos.Plan) (resResult, laResult) {
			rtr := trace.New()
			ropt := opt
			ropt.Trace = rtr
			rs := runRes(ropt, seed, n, window, plan, nil)
			checkTrace(t, rtr)
			etr := trace.New()
			eopt := opt
			eopt.Trace = etr
			es := runLA(eopt, seed, n, window, quantum, plan, nil)
			checkTrace(t, etr)
			return rs, es
		}

		rs, es := run(nil)
		t.Logf("steady: res jobs=%d rejects=%d revokes=%d crashes=%d  eth jobs=%d crashes=%d",
			rs.Jobs, rs.Rejects, rs.Revokes, rs.Crashes, es.Jobs, es.Crashes)
		if rs.Jobs == 0 {
			t.Fatal("reservation cell submitted nothing")
		}
		if rs.Rejects == 0 {
			t.Error("book never rejected: admission capacity is not binding")
		}
		if rs.Crashes != 0 {
			t.Errorf("admission control let the schedd crash %d times", rs.Crashes)
		}
		if opt.Backend == BackendLive {
			atLeast(t, "steady res >= eth jobs", float64(rs.Jobs), float64(es.Jobs), 0.15)
			// Compressed-time jitter may expire a whisker of honest claims.
			if rs.Revokes > 2 {
				t.Errorf("steady revokes = %d, want <= 2 on live", rs.Revokes)
			}
		} else {
			if rs.Jobs < es.Jobs {
				t.Errorf("steady regime inverted: res=%d < eth=%d", rs.Jobs, es.Jobs)
			}
			if rs.Revokes != 0 {
				t.Errorf("steady cell revoked %d claims: windows too tight", rs.Revokes)
			}
		}

		plan, err := chaos.Preset("res-flap", seed)
		if err != nil {
			t.Fatal(err)
		}
		rf, ef := run(plan)
		t.Logf("flap:   res jobs=%d rejects=%d revokes=%d  eth jobs=%d revokes=%d",
			rf.Jobs, rf.Rejects, rf.Revokes, ef.Jobs, ef.Revokes)
		if rf.Revokes == 0 {
			t.Error("flap cell never revoked a claim: no dead windows")
		}
		if opt.Backend == BackendLive {
			// The live Ethernet flap arm's absolute throughput swings with
			// crash phasing the deterministic engine never explores, so the
			// cross-arm flap ordering stays a sim-only claim. What must
			// survive real concurrency: the flap arm did work, and the
			// reservation book's collapse relative to its own steady state.
			if ef.Jobs == 0 {
				t.Fatal("ethernet flap arm did no work")
			}
			atLeast(t, "res collapse: steady >= 2x flap", float64(rs.Jobs), 2*float64(rf.Jobs), 0.15)
		} else {
			if rf.Jobs >= ef.Jobs {
				t.Errorf("collapse regime inverted: res-flap=%d >= eth-flap=%d", rf.Jobs, ef.Jobs)
			}
			if rf.Jobs*2 >= rs.Jobs {
				t.Errorf("res collapse too shallow: flap=%d vs steady=%d", rf.Jobs, rs.Jobs)
			}
			if rf.Rejects <= rs.Rejects {
				t.Errorf("flap rejections %d not above steady %d: dead windows did not fill the book",
					rf.Rejects, rs.Rejects)
			}
		}
	})
}

// TestDiffReservationReader runs the black-hole scenario's reservation
// reader on both backends: per-server admission books divert readers
// from busy replicas without consuming them, so the reservation reader
// transfers at least as much as Aloha while its trace satisfies the
// booked-window grammar.
func TestDiffReservationReader(t *testing.T) {
	forEachDiff(t, func(t *testing.T, opt Options, seed int64) {
		opt.Scale = 0.2
		window := opt.scaleD(ReaderWindow)
		run := func(d core.Discipline) *ReaderTimeline {
			rcfg := replica.DefaultReaderConfig(d)
			rcfg.OuterLimit = window
			tr := trace.New()
			opt.Trace = tr
			tl := readerCell(opt.cell("reader", seed, window, nil, nil), rcfg)
			checkTrace(t, tr)
			return tl
		}
		res := run(core.Reservation)
		aloha := run(core.Aloha)
		t.Logf("transfers: R=%d A=%d  rejections: R=%d  collisions: R=%d A=%d",
			res.TotalTransfers, aloha.TotalTransfers,
			res.TotalRejections, res.TotalCollisions, aloha.TotalCollisions)
		if res.TotalTransfers == 0 {
			t.Fatal("reservation reader transferred nothing")
		}
		if res.TotalRejections == 0 {
			t.Error("books never rejected: single-lane admission is not binding")
		}
		atLeast(t, "Reservation >= Aloha transfers",
			float64(res.TotalTransfers), float64(aloha.TotalTransfers), 0.15)
	})
}

// TestDiffLeaseNoStarvation runs the limited-allocation cell under the
// stuck-holder fault plan on every backend: the watchdog must revoke
// wedged tenures and no client may starve past the budget.
//
// The gridd arm runs its own cells (16 submitters, an 80 s window, an
// 8 s quantum) with the FD table on a daemon on the cell's engine, whose
// watchdog revokes the wedged tenures. Each cell must equal the sim cell
// of the same parameters and seed — jobs, crashes, revocations,
// starvation and violations — and hold the simulator's exact claims.
func TestDiffLeaseNoStarvation(t *testing.T) {
	forEachDiff(t, func(t *testing.T, opt Options, seed int64) {
		if opt.Backend == BackendLive {
			opt.Timescale = leaseTimescale
		}
		window := 2 * time.Minute
		plan, err := chaos.Preset("stuck-holder", seed)
		if err != nil {
			t.Fatal(err)
		}
		res := runLA(opt, seed, 50, window, leaseQuantum(window), plan, nil)
		t.Logf("jobs=%d revokes=%d starved=%d maxWait=%v jain=%.2f",
			res.Jobs, res.Revokes, res.Starved, res.MaxWait, res.Jain)
		if res.Jobs == 0 {
			t.Fatal("leased cell submitted nothing")
		}
		if res.Revokes == 0 {
			t.Error("watchdog never revoked a wedged holder")
		}
		// The simulator's no-starvation claim is exact. A live run is a
		// real concurrent execution: scheduler phasing the deterministic
		// engine never explores (a holder wedged the instant it was
		// granted, backoffs landing in lockstep) plus compressed-time
		// jitter can push the hungriest client past the 4-quantum budget
		// occasionally — so the live band is "bounded, within 2x the
		// reclamation budget", not "never over it".
		budget := leaseBudget(window)
		if opt.Backend == BackendLive {
			if res.Starved > 1 {
				t.Errorf("starvation excursions = %d, want <= 1 on live (maxWait %v)", res.Starved, res.MaxWait)
			}
			if res.MaxWait > 2*budget {
				t.Errorf("maxWait = %v, want <= 2x budget %v on live", res.MaxWait, budget)
			}
		} else if res.Starved != 0 {
			t.Errorf("starvation excursions = %d, want 0 (maxWait %v)", res.Starved, res.MaxWait)
		}
	})
	t.Run(BackendGridd, func(t *testing.T) {
		const n = 16
		window, quantum := 80*time.Second, 8*time.Second
		for _, seed := range diffSeeds {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				plan, err := chaos.Preset("stuck-holder", seed)
				if err != nil {
					t.Fatal(err)
				}
				tr := trace.New()
				var got, want chaos.Recorder
				res := runLA(Options{Backend: BackendGridd, Trace: tr}, seed, n, window, quantum, plan, &got)
				checkTrace(t, tr)
				sim := runLA(Options{}, seed, n, window, quantum, plan, &want)
				t.Logf("jobs=%d revokes=%d starved=%d maxWait=%v jain=%.2f crashes=%d",
					res.Jobs, res.Revokes, res.Starved, res.MaxWait, res.Jain, res.Crashes)
				if !reflect.DeepEqual(res, sim) || !slices.Equal(got.Violations, want.Violations) {
					t.Errorf("gridd cell %+v (violations %v) differs from the sim cell %+v (%v)", res, got.Violations, sim, want.Violations)
				}
				if res.Jobs == 0 {
					t.Fatal("leased cell submitted nothing over the wire")
				}
				if res.Revokes == 0 {
					t.Error("the daemon's watchdog never revoked a wedged holder")
				}
				if res.Starved != 0 {
					t.Errorf("starvation excursions = %d, want 0 (maxWait %v)", res.Starved, res.MaxWait)
				}
				if budget := 4 * quantum; res.MaxWait > budget {
					t.Errorf("maxWait = %v, want <= budget %v", res.MaxWait, budget)
				}
			})
		}
	})
}
