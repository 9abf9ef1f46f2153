package gridd_test

// The wire-protocol property battery over a real socket: seeded
// schedules of concurrent acquire / renew / release / duplicate-release
// / reserve+claim / crash traffic from real goroutines against a live
// daemon, checking the properties the wire protocol promises:
//
//   - safety at every snapshot: Outstanding <= Capacity and zero
//     phantom grants, observed by a stats poller racing the traffic;
//   - FIFO grant order, checkable from outside the socket: sorted by
//     GrantSeq, parked grants' WaiterSeqs are strictly increasing;
//   - units conservation at quiescence: outstanding drains to zero
//     and grants == releases + revokes on the daemon's own counters.
//
// The same properties are checked on hundreds of deterministic
// schedules by the simulator-host battery (simprop_test.go), where a
// failure replays from its seed and shrinks. Here, on the wall clock,
// a schedule does not replay, so this battery is a smoke test that the
// codec and the monitor keep them: the fewest seeds whose schedules
// park, fence, reject, crash and book on every run.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gridd"
	"repro/internal/griddclient"
)

const (
	propPoolCap = 3
	propBookCap = 2
	propQuantum = 24 * time.Millisecond
)

// propTally is the harness-side ledger; every field is guarded by mu
// because the clients are real goroutines, not simulator procs.
type propTally struct {
	mu       sync.Mutex
	leases   []gridd.LeaseReply
	parked   int64
	granted  int64
	stales   int64
	rejects  int64
	bookings int64
}

func (p *propTally) note(fn func(*propTally)) {
	p.mu.Lock()
	fn(p)
	p.mu.Unlock()
}

// griddPropRun executes one schedule and reports a failure description
// ("" if every property held) plus the tally for vacuity accounting.
func griddPropRun(seed int64, clients, opsPer int) (*propTally, string) {
	srv := gridd.NewServer(gridd.Config{Resources: []gridd.ResourceConfig{
		{Name: "pool", Capacity: propPoolCap, Quantum: propQuantum},
		{Name: "book", Capacity: propBookCap},
	}})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := griddclient.New(hs.URL, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tally := &propTally{}
	var violation string
	var vmu sync.Mutex
	setViolation := func(msg string) {
		vmu.Lock()
		if violation == "" {
			violation = msg
		}
		vmu.Unlock()
	}

	// The snapshot poller races the traffic: safety must hold at every
	// observation, not just at quiescence.
	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			for _, name := range []string{"pool", "book"} {
				st, err := c.Stats(ctx, name)
				if err != nil {
					continue
				}
				if st.Outstanding > st.Capacity {
					setViolation(fmt.Sprintf("%s: Outstanding %d > Capacity %d", name, st.Outstanding, st.Capacity))
				}
				if st.Phantoms != 0 {
					setViolation(fmt.Sprintf("%s: %d phantom grants on a fenced resource", name, st.Phantoms))
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		holder := fmt.Sprintf("c%d", i)
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				time.Sleep(time.Duration(rng.Intn(6)) * time.Millisecond)
				switch rng.Intn(10) {
				case 0, 1: // immediate acquire (EMFILE regime)
					l, err := c.Acquire(ctx, gridd.AcquireRequest{
						Resource: "pool", Holder: holder, Units: 1 + rng.Int63n(2),
					})
					if err != nil {
						tally.note(func(p *propTally) { p.rejects++ })
						continue
					}
					tenure(ctx, c, rng, l, tally)
				case 2: // the whole pool at once: granted only into an idle pool
					l, err := c.Acquire(ctx, gridd.AcquireRequest{
						Resource: "pool", Holder: holder, Units: propPoolCap,
					})
					if err != nil {
						tally.note(func(p *propTally) { p.rejects++ })
						continue
					}
					tenure(ctx, c, rng, l, tally)
				case 3, 4: // reserve + claim on the admission book
					rr, err := c.Reserve(ctx, gridd.ReserveRequest{
						Resource: "book", Holder: holder, Units: 1 + rng.Int63n(2),
						TenureNS: int64(30 * time.Millisecond),
					})
					if err != nil {
						tally.note(func(p *propTally) { p.rejects++ })
						continue
					}
					tally.note(func(p *propTally) { p.bookings++ })
					l, err := c.Claim(ctx, gridd.ClaimRequest{Resource: "book", BookingID: rr.BookingID})
					if err != nil {
						continue // lapsed under load: the window was short
					}
					time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
					_ = l.Release(ctx)
				default: // parked acquire (long poll)
					l, err := c.Acquire(ctx, gridd.AcquireRequest{
						Resource: "pool", Holder: holder, Units: 1 + rng.Int63n(2),
						WaitNS: int64(300 * time.Millisecond),
					})
					if err != nil {
						tally.note(func(p *propTally) { p.rejects++ })
						continue
					}
					tenure(ctx, c, rng, l, tally)
				}
			}
		}()
	}
	wg.Wait()
	close(pollStop)
	<-pollDone

	// Quiescence: watchdogs fire within one quantum; the book's
	// window-fenced claims within their 30ms windows.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p, _ := c.Stats(ctx, "pool")
		b, _ := c.Stats(ctx, "book")
		if p.Outstanding == 0 && b.Outstanding == 0 {
			break
		}
		time.Sleep(3 * time.Millisecond)
	}

	vmu.Lock()
	msg := violation
	vmu.Unlock()
	if msg != "" {
		return tally, msg
	}
	for _, name := range []string{"pool", "book"} {
		st, err := c.Stats(ctx, name)
		if err != nil {
			return tally, fmt.Sprintf("%s: stats: %v", name, err)
		}
		if st.Outstanding != 0 {
			return tally, fmt.Sprintf("%s: %d units outstanding at quiescence", name, st.Outstanding)
		}
		if st.Grants != st.Releases+st.Revokes {
			return tally, fmt.Sprintf("%s: conservation: %d grants != %d releases + %d revokes",
				name, st.Grants, st.Releases, st.Revokes)
		}
		if st.Phantoms != 0 || st.DoubleFrees != 0 {
			return tally, fmt.Sprintf("%s: fenced resource corrupted: %+v", name, st)
		}
	}

	// FIFO, reconstructed purely from wire-visible sequence numbers.
	tally.mu.Lock()
	leases := append([]gridd.LeaseReply(nil), tally.leases...)
	tally.mu.Unlock()
	sort.Slice(leases, func(i, j int) bool { return leases[i].GrantSeq < leases[j].GrantSeq })
	var lastW uint64
	for _, l := range leases {
		if l.WaiterSeq == 0 {
			continue // immediate grant: not part of the parked order
		}
		if l.WaiterSeq <= lastW {
			return tally, fmt.Sprintf("FIFO violated: grant %d has waiter seq %d after %d",
				l.GrantSeq, l.WaiterSeq, lastW)
		}
		lastW = l.WaiterSeq
	}
	return tally, ""
}

// tenure holds a granted lease in a randomized style — wedge past the
// watchdog, renew mid-tenure, duplicate the release, or release at
// once — and records how it ended.
func tenure(ctx context.Context, c *griddclient.Client, rng *rand.Rand, l *griddclient.Lease, tally *propTally) {
	tally.note(func(p *propTally) {
		p.granted++
		p.leases = append(p.leases, l.LeaseReply)
		if l.WaiterSeq > 0 {
			p.parked++
		}
	})
	switch rng.Intn(4) {
	case 0: // wedge: overstay; the watchdog revokes, the release fences
		time.Sleep(propQuantum + propQuantum/2)
	case 1: // renew mid-tenure, then hold a little longer
		time.Sleep(propQuantum / 3)
		_, _ = l.Renew(ctx, 0)
		time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
	case 2: // hold a random fraction of the quantum
		time.Sleep(time.Duration(rng.Int63n(int64(propQuantum / 2))))
	case 3: // release immediately
	}
	err := l.Release(ctx)
	if errors.Is(err, core.ErrStale) {
		tally.note(func(p *propTally) { p.stales++ })
	}
	if rng.Intn(3) == 0 {
		// The duplicated release: the fenced daemon must answer stale,
		// never apply it (checked globally via DoubleFrees == 0).
		if err := l.Release(ctx); errors.Is(err, core.ErrStale) {
			tally.note(func(p *propTally) { p.stales++ })
		}
	}
}

func TestPropWireFIFOAndConservation(t *testing.T) {
	const clients, opsPer = 4, 5
	var parked, granted, stales, rejects, bookings int64
	for seed := int64(1); seed <= 2; seed++ {
		tally, msg := griddPropRun(seed, clients, opsPer)
		if msg != "" {
			t.Fatalf("seed %d: %d clients x %d ops fail: %s", seed, clients, opsPer, msg)
		}
		parked += tally.parked
		granted += tally.granted
		stales += tally.stales
		rejects += tally.rejects
		bookings += tally.bookings
	}
	// The properties are only as strong as the schedules that reach
	// them: the battery must actually have parked, fenced, rejected
	// and booked somewhere across its seeds.
	if parked == 0 || granted == 0 || stales == 0 || rejects == 0 || bookings == 0 {
		t.Fatalf("vacuous coverage: parked=%d granted=%d stales=%d rejects=%d bookings=%d",
			parked, granted, stales, rejects, bookings)
	}
}
