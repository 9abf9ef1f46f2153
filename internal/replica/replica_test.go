package replica

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mkServers(e *sim.Engine, cfg Config, blackHoleFirst bool) []*Server {
	return []*Server{
		NewServer(e.RT(), "xxx", blackHoleFirst, cfg),
		NewServer(e.RT(), "yyy", false, cfg),
		NewServer(e.RT(), "zzz", false, cfg),
	}
}

func TestIdealTransferTakesTenSeconds(t *testing.T) {
	e := sim.New(1)
	srv := NewServer(e.RT(), "s", false, Config{})
	var err error
	e.Spawn("c", func(p *sim.Proc) {
		err = srv.FetchData(p, e.Context())
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	// 100 MB at 10 MB/s plus 50 ms connect.
	want := 10*time.Second + 50*time.Millisecond
	if e.Elapsed() != want {
		t.Fatalf("elapsed = %v, want %v", e.Elapsed(), want)
	}
}

func TestSingleThreadedServerSerializes(t *testing.T) {
	e := sim.New(1)
	srv := NewServer(e.RT(), "s", false, Config{})
	var finish []time.Duration
	for i := 0; i < 2; i++ {
		e.Spawn("c", func(p *sim.Proc) {
			if err := srv.FetchData(p, e.Context()); err != nil {
				t.Errorf("fetch: %v", err)
				return
			}
			finish = append(finish, p.Elapsed())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(finish) != 2 {
		t.Fatalf("finish = %v", finish)
	}
	if finish[1]-finish[0] < 9*time.Second {
		t.Fatalf("transfers overlapped: %v", finish)
	}
}

func TestBlackHoleHangsUntilTimeout(t *testing.T) {
	e := sim.New(1)
	srv := NewServer(e.RT(), "bh", true, Config{})
	var err error
	e.Spawn("c", func(p *sim.Proc) {
		ctx, cancel := p.WithTimeout(e.Context(), 60*time.Second)
		defer cancel()
		err = srv.FetchData(p, ctx)
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
	if e.Elapsed() != 60*time.Second {
		t.Fatalf("elapsed = %v, want the full 60s timeout", e.Elapsed())
	}
	if srv.Absorbed != 1 {
		t.Fatalf("Absorbed = %d", srv.Absorbed)
	}
}

func TestEthernetReaderDefersPastBlackHole(t *testing.T) {
	e := sim.New(3)
	servers := mkServers(e, Config{}, true)
	var r Reader
	var err error
	e.Spawn("reader", func(p *sim.Proc) {
		err = r.ReadOnce(p, e.Context(), servers, DefaultReaderConfig(core.Ethernet))
	})
	if runErr := e.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if r.Done != 1 {
		t.Fatalf("Done = %d", r.Done)
	}
	// Even if the black hole was probed first, the detour costs only the
	// 5 s probe timeout, not the 60 s data timeout.
	if e.Elapsed() > 20*time.Second {
		t.Fatalf("elapsed = %v, want < 20s", e.Elapsed())
	}
	if r.Collisions != 0 {
		t.Fatalf("Collisions = %d, want 0 for Ethernet", r.Collisions)
	}
}

func TestAlohaReaderPaysSixtySecondsInBlackHole(t *testing.T) {
	// Find a seed whose shuffle visits the black hole first, then verify
	// the 60-second penalty.
	for seed := int64(0); seed < 16; seed++ {
		e := sim.New(seed)
		servers := mkServers(e, Config{}, true)
		var r Reader
		e.Spawn("reader", func(p *sim.Proc) {
			_ = r.ReadOnce(p, e.Context(), servers, DefaultReaderConfig(core.Aloha))
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if r.Collisions > 0 {
			if e.Elapsed() < 70*time.Second {
				t.Fatalf("seed %d: elapsed %v with a collision, want > 70s", seed, e.Elapsed())
			}
			if r.Done != 1 {
				t.Fatalf("seed %d: Done = %d", seed, r.Done)
			}
			return
		}
	}
	t.Fatal("no seed sent the Aloha reader into the black hole first")
}

func TestReaderLoopTimeline(t *testing.T) {
	run := func(d core.Discipline) *Reader {
		e := sim.New(11)
		servers := mkServers(e, Config{}, true)
		ctx, cancel := e.WithTimeout(e.Context(), 900*time.Second)
		defer cancel()
		readers := make([]*Reader, 3)
		for i := range readers {
			readers[i] = &Reader{}
			r := readers[i]
			e.Spawn("reader", func(p *sim.Proc) { r.Loop(p, ctx, servers, DefaultReaderConfig(d)) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		agg := &Reader{}
		for _, r := range readers {
			agg.Done += r.Done
			agg.Collisions += r.Collisions
			agg.Deferrals += r.Deferrals
		}
		return agg
	}
	aloha := run(core.Aloha)
	eth := run(core.Ethernet)
	if aloha.Collisions == 0 {
		t.Fatal("aloha readers never hit the black hole")
	}
	if eth.Collisions != 0 {
		t.Fatalf("ethernet collisions = %d", eth.Collisions)
	}
	if eth.Deferrals == 0 {
		t.Fatal("ethernet readers never deferred")
	}
	if eth.Done <= aloha.Done {
		t.Fatalf("ethernet %d transfers not > aloha %d", eth.Done, aloha.Done)
	}
}

func TestProbeCountsOnServers(t *testing.T) {
	e := sim.New(2)
	servers := mkServers(e, Config{}, true)
	ctx, cancel := e.WithTimeout(e.Context(), 300*time.Second)
	defer cancel()
	var r Reader
	e.Spawn("reader", func(p *sim.Proc) { r.Loop(p, ctx, servers, DefaultReaderConfig(core.Ethernet)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	probes := servers[1].Probes + servers[2].Probes
	if probes == 0 {
		t.Fatal("no probes served by live servers")
	}
	if servers[0].Probes != 0 {
		t.Fatalf("black hole served %d probes", servers[0].Probes)
	}
}

// tally counts a traced reader's events by kind, or returns ok false
// if they are not in time order. Figures 6 and 7 are these counts.
func tally(tr *trace.Tracer) (n map[trace.Kind]int64, ok bool) {
	n = map[trace.Kind]int64{}
	last := time.Duration(-1)
	for _, ev := range tr.Events() {
		if ev.At < last {
			return nil, false
		}
		last = ev.At
		n[ev.Kind]++
	}
	return n, true
}

// Property: a reader loop never records more transfers than the window
// could physically hold, its trace is time-ordered, and the trace counts
// each transfer, collision and deferral exactly once.
func TestQuickReaderEventSanity(t *testing.T) {
	f := func(seed int64, disc uint8) bool {
		e := sim.New(seed)
		servers := mkServers(e, Config{}, true)
		window := 300 * time.Second
		ctx, cancel := e.WithTimeout(e.Context(), window)
		defer cancel()
		var r Reader
		d := core.Aloha
		if disc%2 == 0 {
			d = core.Ethernet
		}
		tr := trace.New()
		cfg := DefaultReaderConfig(d)
		cfg.Trace = tr.NewClient(d.String(), "reader-0", e.Elapsed)
		e.Spawn("reader", func(p *sim.Proc) { r.Loop(p, ctx, servers, cfg) })
		if err := e.Run(); err != nil {
			return false
		}
		// Ideal transfer ≈ 10s ⇒ at most ~30 in 300s.
		if r.Done > 31 {
			return false
		}
		n, ok := tally(tr)
		return ok && n[trace.KSuccess] == r.Done && n[trace.KCollision] == r.Collisions &&
			n[trace.KDefer] == r.Deferrals
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Reserving readers outnumbering the one-lane books are refused, and
// each reader's trace counts every refusal and transfer exactly once.
func TestReservedReaderTraceCounts(t *testing.T) {
	e := sim.New(3)
	servers := mkServers(e, Config{}, true)
	books := NewBooks(e.RT(), servers)
	ctx, cancel := e.WithTimeout(e.Context(), 300*time.Second)
	defer cancel()
	readers := make([]*Reader, 6)
	tracers := make([]*trace.Tracer, len(readers))
	for i := range readers {
		r, tr := &Reader{}, trace.New()
		readers[i], tracers[i] = r, tr
		cfg := DefaultReaderConfig(core.Reservation)
		cfg.Trace = tr.NewClient(core.Reservation.String(), "reader", e.Elapsed)
		e.Spawn("reader", func(p *sim.Proc) { r.LoopReserved(p, ctx, servers, books, cfg) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var rejections int64
	for i, r := range readers {
		n, ok := tally(tracers[i])
		if !ok {
			t.Fatalf("reader %d: trace out of time order", i)
		}
		if n[trace.KReject] != r.Rejections || n[trace.KSuccess] != r.Done || n[trace.KCollision] != r.Collisions {
			t.Fatalf("reader %d: trace counts reject=%d success=%d collision=%d; reader counts %d, %d, %d",
				i, n[trace.KReject], n[trace.KSuccess], n[trace.KCollision], r.Rejections, r.Done, r.Collisions)
		}
		rejections += r.Rejections
	}
	if rejections == 0 {
		t.Fatal("no reserving reader was ever refused")
	}
}

func TestTransientBlackHoleRecovery(t *testing.T) {
	// A server that wedges for the first 300 s and is then repaired:
	// Ethernet readers divert around it while sick (probe fails) and
	// resume using it after recovery (probe succeeds), with no
	// 60-second collisions at any point.
	e := sim.New(7)
	cfg := Config{}
	sick := NewServer(e.RT(), "xxx", true, cfg)
	servers := []*Server{
		sick,
		NewServer(e.RT(), "yyy", false, cfg),
		NewServer(e.RT(), "zzz", false, cfg),
	}
	e.Schedule(300*time.Second, func() { sick.SetBlackHole(false) })
	ctx, cancel := e.WithTimeout(e.Context(), 900*time.Second)
	defer cancel()
	readers := make([]*Reader, 3)
	for i := range readers {
		readers[i] = &Reader{}
		r := readers[i]
		e.Spawn("reader", func(p *sim.Proc) { r.Loop(p, ctx, servers, DefaultReaderConfig(core.Ethernet)) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var collisions int64
	for _, r := range readers {
		collisions += r.Collisions
	}
	if collisions != 0 {
		t.Fatalf("collisions = %d, want 0", collisions)
	}
	if sick.Transfers == 0 {
		t.Fatal("repaired server received no transfers after recovery")
	}
	if sick.Absorbed == 0 {
		t.Fatal("server absorbed nobody while sick (probes never touched it?)")
	}
}
