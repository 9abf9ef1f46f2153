// Package repro's benchmarks regenerate every figure of the paper (at a
// reduced scale, so `go test -bench` stays fast) and run the ablations
// called out in DESIGN.md §6. Custom metrics carry the experimental
// quantities: jobs/op, crashes/op, transfers/op, collisions/op, and so
// on — the *shape* across benchmark variants is the result, not ns/op.
//
// Regenerate the full-scale figures with: go run ./cmd/gridbench
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/condor"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fsbuffer"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchScale shrinks populations and windows so each iteration is a few
// milliseconds; gridbench runs the full-size figures.
var benchScale = 0.25

// ---------------------------------------------------------------------
// One benchmark per paper figure.
// ---------------------------------------------------------------------

// BenchmarkFig1 regenerates Figure 1 (job-submission scalability) per
// discipline at the contended end of the sweep.
func BenchmarkFig1(b *testing.B) {
	window := time.Duration(benchScale * float64(expt.SubmitWindow))
	n := int(float64(475) * benchScale)
	clCfg := condor.Config{FDCapacity: int(float64(8192) * benchScale)}
	for _, d := range core.Disciplines {
		b.Run(d.String(), func(b *testing.B) {
			var jobs, crashes int64
			for i := 0; i < b.N; i++ {
				cfg := condor.DefaultSubmitterConfig(d)
				cfg.Threshold = int(float64(1000) * benchScale)
				j, c := expt.SubmitCell(expt.Options{}, int64(i+1), n, window, cfg, clCfg, nil, nil)
				jobs += j
				crashes += c
			}
			b.ReportMetric(float64(jobs)/float64(b.N), "jobs/op")
			b.ReportMetric(float64(crashes)/float64(b.N), "crashes/op")
		})
	}
}

// BenchmarkSweepParallel measures the parallel cell runner over the
// full Figure 1 sweep (36 independent cells at scale 0.1): wall-clock
// per sweep at increasing worker counts. Speedup is bounded by
// min(workers, cores); the jobs/op metric pins that every worker count
// computes the same sweep.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var jobs float64
			for i := 0; i < b.N; i++ {
				t := expt.Fig1(expt.Options{Scale: 0.1, Parallel: workers})
				for _, col := range t.Cols {
					for _, v := range col.Vals {
						jobs += v
					}
				}
			}
			b.ReportMetric(jobs/float64(b.N), "jobs/op")
		})
	}
}

// BenchmarkFig2 regenerates Figure 2 (Aloha submitter timeline).
func BenchmarkFig2(b *testing.B) {
	benchTimeline(b, core.Aloha)
}

// BenchmarkFig3 regenerates Figure 3 (Ethernet submitter timeline).
func BenchmarkFig3(b *testing.B) {
	benchTimeline(b, core.Ethernet)
}

func benchTimeline(b *testing.B, d core.Discipline) {
	var jobs, crashes float64
	for i := 0; i < b.N; i++ {
		tl := expt.RunSubmitTimeline(expt.Options{Seed: int64(i + 1), Scale: benchScale}, "bench", d)
		jobs += tl.Jobs.Last().V
		crashes += float64(tl.Crashes)
	}
	b.ReportMetric(jobs/float64(b.N), "jobs/op")
	b.ReportMetric(crashes/float64(b.N), "crashes/op")
}

// BenchmarkFig4 regenerates Figure 4 (buffer throughput) per discipline
// at the contended end of the producer sweep.
func BenchmarkFig4(b *testing.B) {
	benchBuffer(b, false)
}

// BenchmarkFig5 regenerates Figure 5 (buffer collisions).
func BenchmarkFig5(b *testing.B) {
	benchBuffer(b, true)
}

func benchBuffer(b *testing.B, collisions bool) {
	window := time.Duration(benchScale * float64(expt.BufferWindow))
	producers := 40
	for _, d := range core.Disciplines {
		b.Run(d.String(), func(b *testing.B) {
			var consumed, collided int64
			for i := 0; i < b.N; i++ {
				buf := expt.BufferCell(expt.Options{}, int64(i+1), producers, window, d, nil, nil)
				consumed += buf.Consumed
				collided += buf.Collisions
			}
			if collisions {
				b.ReportMetric(float64(collided)/float64(b.N), "collisions/op")
			} else {
				b.ReportMetric(float64(consumed)/float64(b.N), "consumed/op")
			}
		})
	}
}

// BenchmarkFig6 regenerates Figure 6 (Aloha file reader vs black hole).
func BenchmarkFig6(b *testing.B) {
	benchReaders(b, core.Aloha)
}

// BenchmarkFig7 regenerates Figure 7 (Ethernet file reader).
func BenchmarkFig7(b *testing.B) {
	benchReaders(b, core.Ethernet)
}

func benchReaders(b *testing.B, d core.Discipline) {
	var transfers, collisions, deferrals float64
	for i := 0; i < b.N; i++ {
		tl := expt.RunReaderTimeline(expt.Options{Seed: int64(i + 1)}, "bench", d)
		transfers += float64(tl.TotalTransfers)
		collisions += float64(tl.TotalCollisions)
		deferrals += float64(tl.TotalDeferrals)
	}
	b.ReportMetric(transfers/float64(b.N), "transfers/op")
	b.ReportMetric(collisions/float64(b.N), "collisions/op")
	b.ReportMetric(deferrals/float64(b.N), "deferrals/op")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §6).
// ---------------------------------------------------------------------

// BenchmarkAblationRandomFactor compares randomized backoff against an
// unrandomized one on a genuine shared-collision medium
// (internal/channel): without the random factor, stations that collide
// retry in lockstep and re-collide — §3's "cascading collisions". (On
// the FD-table scenario this effect does not appear, because FD
// acquisition is first-come-first-served rather than mutually
// destructive; the channel is the honest venue for this ablation.)
func BenchmarkAblationRandomFactor(b *testing.B) {
	window := 2 * time.Second
	for _, randomized := range []bool{true, false} {
		name := "randomized"
		if !randomized {
			name = "synchronized"
		}
		b.Run(name, func(b *testing.B) {
			var sent, collisions int64
			for i := 0; i < b.N; i++ {
				cfg := channel.DefaultStationConfig(core.Aloha)
				cfg.Backoff = &core.Backoff{
					Base: cfg.Frame, Cap: 1024 * cfg.Frame, Factor: 2,
					RandMin: 1, RandMax: 2,
				}
				if !randomized {
					cfg.Backoff.RandMax = 1
				}
				ch := channel.RunStations(int64(i+1), 30, window, cfg)
				sent += ch.Successes
				collisions += ch.Collisions
			}
			b.ReportMetric(float64(sent)/float64(b.N), "frames/op")
			b.ReportMetric(float64(collisions)/float64(b.N), "collisions/op")
		})
	}
}

// BenchmarkAblationBackoffCap sweeps the backoff cap. A tiny cap keeps
// clients hammering (more collisions); a huge cap strands them asleep
// (fewer jobs at moderate loss rates).
func BenchmarkAblationBackoffCap(b *testing.B) {
	window := time.Duration(benchScale * float64(expt.SubmitWindow))
	n := int(float64(475) * benchScale)
	clCfg := condor.Config{FDCapacity: int(float64(8192) * benchScale)}
	for _, cap := range []time.Duration{2 * time.Second, 16 * time.Second, time.Hour} {
		b.Run(fmt.Sprintf("cap=%v", cap), func(b *testing.B) {
			var jobs, crashes int64
			for i := 0; i < b.N; i++ {
				e := sim.New(int64(i + 1))
				cl := condor.NewCluster(e.RT(), clCfg)
				ctx, cancel := e.WithTimeout(e.Context(), window)
				cl.StartHousekeeping(ctx)
				for j := 0; j < n; j++ {
					e.Spawn("submitter", func(p *sim.Proc) {
						bo := core.NewBackoff(p.Rand)
						bo.Cap = cap
						client := &core.Client{Rt: p, Discipline: core.Aloha, Limit: core.For(5 * time.Minute), Backoff: bo}
						for ctx.Err() == nil {
							if err := client.Do(ctx, func(ctx context.Context) error {
								return cl.Schedd.Submit(p, ctx)
							}); err == nil {
								if p.Sleep(ctx, time.Second) != nil {
									return
								}
							}
						}
					})
				}
				if err := e.Run(); err != nil {
					panic(err)
				}
				cancel()
				jobs += cl.Schedd.Jobs
				crashes += cl.Schedd.Crashes
			}
			b.ReportMetric(float64(jobs)/float64(b.N), "jobs/op")
			b.ReportMetric(float64(crashes)/float64(b.N), "crashes/op")
		})
	}
}

// BenchmarkAblationThreshold sweeps the Ethernet submitter's carrier
// threshold: too low fails to prevent crashes, too high idles capacity.
func BenchmarkAblationThreshold(b *testing.B) {
	window := time.Duration(benchScale * float64(expt.SubmitWindow))
	n := int(float64(475) * benchScale)
	capFD := int(float64(8192) * benchScale)
	clCfg := condor.Config{FDCapacity: capFD}
	for _, frac := range []float64{0.01, 0.12, 0.99} {
		threshold := int(frac * float64(capFD))
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			var jobs, crashes int64
			for i := 0; i < b.N; i++ {
				cfg := condor.DefaultSubmitterConfig(core.Ethernet)
				cfg.Threshold = threshold
				j, c := expt.SubmitCell(expt.Options{}, int64(i+1), n, window, cfg, clCfg, nil, nil)
				jobs += j
				crashes += c
			}
			b.ReportMetric(float64(jobs)/float64(b.N), "jobs/op")
			b.ReportMetric(float64(crashes)/float64(b.N), "crashes/op")
		})
	}
}

// BenchmarkAblationProbeTimeout sweeps the Ethernet reader's flag-probe
// budget in the black-hole scenario: too short rejects healthy but busy
// servers; too long approaches the Aloha penalty.
func BenchmarkAblationProbeTimeout(b *testing.B) {
	for _, probe := range []time.Duration{500 * time.Millisecond, 5 * time.Second, 30 * time.Second} {
		b.Run(fmt.Sprintf("probe=%v", probe), func(b *testing.B) {
			var transfers, deferrals float64
			for i := 0; i < b.N; i++ {
				rcfg := replica.DefaultReaderConfig(core.Ethernet)
				rcfg.ProbeTimeout = probe
				tl := expt.ReaderCell(expt.Options{}, int64(i+1), expt.ReaderWindow, rcfg, nil, nil)
				transfers += float64(tl.TotalTransfers)
				deferrals += float64(tl.TotalDeferrals)
			}
			b.ReportMetric(transfers/float64(b.N), "transfers/op")
			b.ReportMetric(deferrals/float64(b.N), "deferrals/op")
		})
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the machinery itself.
// ---------------------------------------------------------------------

// BenchmarkBackoffNext measures the cost of one backoff step.
func BenchmarkBackoffNext(b *testing.B) {
	rt := core.NewReal(1)
	bo := core.NewBackoff(rt.Rand)
	for i := 0; i < b.N; i++ {
		if i%32 == 0 {
			bo.Reset()
		}
		_ = bo.Next()
	}
}

// BenchmarkTrySimulated measures a full try/backoff cycle in virtual
// time: 10 failures then success.
func BenchmarkTrySimulated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.New(1)
		e.Spawn("t", func(p *sim.Proc) {
			calls := 0
			_ = core.Try(e.Context(), p, core.For(24*time.Hour), core.TryConfig{}, func(ctx context.Context) error {
				calls++
				if calls <= 10 {
					return core.ErrFailure
				}
				return nil
			})
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDAGWorkload runs the Chimera-style DAG dispatcher (the
// workload §5 motivates scenario one with) against a cluster kept under
// FD pressure by a polite (Aloha) background population. The result is
// the paper's §8 observation in numbers: the Fixed dispatcher finishes
// its own DAG fastest *because* everyone else is polite — "a single
// obnoxious customer can disrupt a movie theater" — while the Ethernet
// dispatcher queues fairly behind the crowd. Watch crashes/op and
// bg-jobs/op for what each dispatcher style does to the shared system.
func BenchmarkDAGWorkload(b *testing.B) {
	for _, d := range core.Disciplines {
		b.Run(d.String(), func(b *testing.B) {
			var makespan, abandoned, crashes, bgJobs float64
			for i := 0; i < b.N; i++ {
				e := sim.New(int64(i + 1))
				cl := condor.NewCluster(e.RT(), condor.Config{FDCapacity: 2048})
				ctx, cancel := e.WithTimeout(e.Context(), 2*time.Hour)
				cl.StartHousekeeping(ctx)
				// Background load: enough Aloha clients to keep the
				// 2048-FD table saturated.
				bgCfg := condor.DefaultSubmitterConfig(core.Aloha)
				bgCfg.Threshold = 250
				for j := 0; j < 110; j++ {
					e.Spawn("bg", func(p *sim.Proc) {
						var sub condor.Submitter
						sub.Loop(p, ctx, cl, bgCfg)
					})
				}
				rng := rand.New(rand.NewSource(int64(i + 1)))
				dag := condor.LayeredDAG(rng, 3, 5, 2)
				dcfg := condor.DefaultDispatcherConfig(d)
				dcfg.Submit.Threshold = 250
				var disp condor.Dispatcher
				e.Spawn("dispatcher", func(p *sim.Proc) {
					_ = disp.Run(p, ctx, cl, dag, dcfg)
				})
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				cancel()
				makespan += disp.Makespan.Seconds()
				abandoned += float64(disp.Abandoned)
				crashes += float64(cl.Schedd.Crashes)
				bgJobs += float64(cl.Schedd.Jobs - disp.Submitted)
			}
			b.ReportMetric(makespan/float64(b.N), "makespan-s/op")
			b.ReportMetric(abandoned/float64(b.N), "abandoned/op")
			b.ReportMetric(crashes/float64(b.N), "crashes/op")
			b.ReportMetric(bgJobs/float64(b.N), "bg-jobs/op")
		})
	}
}

// BenchmarkBaselineReservation compares the paper's §5 counter-proposal
// — NeST/SRB/SRM-style space reservation before writing — against the
// Ethernet producer on a space-constrained buffer with a realistic
// allocation round trip. Reservation eliminates ENOSPC collisions
// entirely but pays for it in allocator congestion: denials cost full
// round trips, so grants lag the space they are waiting for.
func BenchmarkBaselineReservation(b *testing.B) {
	window := 2 * time.Minute
	const producers = 25
	cfg := fsbuffer.Config{Capacity: 6 * fsbuffer.MB}
	grant := 200 * time.Millisecond

	b.Run("Reserving", func(b *testing.B) {
		var consumed, denials float64
		for i := 0; i < b.N; i++ {
			e := sim.New(int64(i + 1))
			buf := fsbuffer.New(e.RT(), cfg)
			alloc := fsbuffer.NewAllocator(e.RT(), buf, grant)
			ctx, cancel := e.WithTimeout(e.Context(), window)
			e.Spawn("consumer", func(p *sim.Proc) { buf.Consumer(p, ctx) })
			for j := 0; j < producers; j++ {
				j := j
				e.Spawn("producer", func(p *sim.Proc) {
					var rp fsbuffer.ReservingProducer
					rp.Loop(p, ctx, alloc, j, fsbuffer.DefaultProducerConfig(core.Aloha))
				})
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			cancel()
			consumed += float64(buf.Consumed)
			denials += float64(alloc.Denials)
			if buf.Collisions != 0 {
				b.Fatalf("reserving producers collided %d times", buf.Collisions)
			}
		}
		b.ReportMetric(consumed/float64(b.N), "consumed/op")
		b.ReportMetric(denials/float64(b.N), "denials/op")
	})
	b.Run("Ethernet", func(b *testing.B) {
		var consumed, collisions float64
		for i := 0; i < b.N; i++ {
			e := sim.New(int64(i + 1))
			buf := fsbuffer.New(e.RT(), cfg)
			ctx, cancel := e.WithTimeout(e.Context(), window)
			e.Spawn("consumer", func(p *sim.Proc) { buf.Consumer(p, ctx) })
			for j := 0; j < producers; j++ {
				j := j
				e.Spawn("producer", func(p *sim.Proc) {
					var pr fsbuffer.Producer
					pr.Loop(p, ctx, buf, j, fsbuffer.DefaultProducerConfig(core.Ethernet))
				})
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			cancel()
			consumed += float64(buf.Consumed)
			collisions += float64(buf.Collisions)
		}
		b.ReportMetric(consumed/float64(b.N), "consumed/op")
		b.ReportMetric(collisions/float64(b.N), "collisions/op")
	})
}

// BenchmarkFig7Traced regenerates Figure 7 with a live tracer attached,
// against BenchmarkFig7 as the untraced baseline, and reports the
// events recorded per run.
func BenchmarkFig7Traced(b *testing.B) {
	var events float64
	for i := 0; i < b.N; i++ {
		opt := expt.Options{Seed: int64(i + 1), Scale: benchScale, Trace: trace.New()}
		_ = expt.Fig7(opt)
		events += float64(opt.Trace.Len())
	}
	b.ReportMetric(events/float64(b.N), "events/op")
}
