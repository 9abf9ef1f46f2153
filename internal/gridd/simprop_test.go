package gridd

// The wire property battery on the simulator host: the socket battery's
// properties (prop_test.go), checked on hundreds of seeded schedules
// whose clients are simulator processes calling the operations
// directly. Virtual time makes a schedule a function of its seed, so a
// failure replays, and shrinks the way internal/lease's battery does.
//
//   - safety after every operation and at every sampler tick:
//     Outstanding <= Capacity, no phantom grant, no double free;
//   - FIFO grant order: sorted by GrantSeq, parked grants' WaiterSeqs
//     are strictly increasing;
//   - units conservation at quiescence: nothing outstanding, and
//     grants == releases + revokes on the daemon's own counters.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

const (
	simPoolCap = 3
	simBookCap = 2
	simQuantum = 24 * time.Millisecond
	simSeeds   = 200
)

// simRun is one schedule's outcome: the operation history (every
// request and reply, in order), the tally the vacuity check reads, and
// the first property broken ("" if every one held).
type simRun struct {
	srv     *Server
	eng     *sim.Engine
	history []string
	leases  []LeaseReply
	fail    string

	parked, granted, stales, rejects, bookings int64
}

// check is the safety property, on both resources.
func (run *simRun) check(when string) {
	for _, name := range []string{"pool", "book"} {
		st, _ := run.srv.Stats(name)
		if run.fail == "" && (st.Outstanding > st.Capacity || st.Phantoms != 0 || st.DoubleFrees != 0) {
			run.fail = fmt.Sprintf("%s at %v: %s: outstanding %d of %d, %d phantoms, %d double frees",
				when, run.eng.Elapsed(), name, st.Outstanding, st.Capacity, st.Phantoms, st.DoubleFrees)
		}
	}
}

// log enters one operation in the history and checks safety after it.
func (run *simRun) log(who, op string, req, rep any, er *ErrorReply) {
	line := fmt.Sprintf("%v %s %s %+v -> %+v", run.eng.Elapsed(), who, op, req, rep)
	if er != nil {
		line += fmt.Sprintf(" %+v", *er)
	}
	run.history = append(run.history, line)
	run.check(who + " " + op)
}

func simPropRun(seed int64, clients, opsPer int) *simRun {
	e := sim.New(seed)
	run := &simRun{eng: e, srv: NewServerOn(e.RT(), Config{Resources: []ResourceConfig{
		{Name: "pool", Capacity: simPoolCap, Quantum: simQuantum},
		{Name: "book", Capacity: simBookCap},
	}})}
	srv, ctx := run.srv, e.Context()

	acquire := func(p *sim.Proc, who string, ar AcquireRequest) *LeaseReply {
		l, er := srv.Acquire(p, ctx, ar)
		run.log(who, "acquire", ar, l, er)
		return l
	}
	release := func(who string, rr ReleaseRequest) {
		_, er := srv.Release(rr)
		run.log(who, "release", rr, nil, er)
		if er != nil && er.Code == CodeStale {
			run.stales++
		}
	}
	// tenure holds a granted lease in a randomized style — wedge past
	// the watchdog, renew mid-tenure, hold a while, or release at once —
	// then releases it, and sometimes releases it again: the duplicate
	// a real channel makes, which the fenced daemon must answer stale.
	tenure := func(p *sim.Proc, who string, rng *rand.Rand, l *LeaseReply) {
		run.granted++
		run.leases = append(run.leases, *l)
		if l.WaiterSeq > 0 {
			run.parked++
		}
		switch rng.Intn(4) {
		case 0:
			p.SleepFor(simQuantum + simQuantum/2)
		case 1:
			p.SleepFor(simQuantum / 3)
			rn := RenewRequest{Resource: l.Resource, LeaseID: l.LeaseID, Epoch: l.Epoch}
			reply, er := srv.Renew(rn)
			run.log(who, "renew", rn, reply, er)
			p.SleepFor(time.Duration(rng.Intn(8)) * time.Millisecond)
		case 2:
			p.SleepFor(time.Duration(rng.Int63n(int64(simQuantum / 2))))
		}
		rr := ReleaseRequest{Resource: l.Resource, LeaseID: l.LeaseID, Epoch: l.Epoch, Units: l.Units}
		release(who, rr)
		if rng.Intn(3) == 0 {
			release(who, rr)
		}
	}

	live := clients
	for i := 0; i < clients; i++ {
		who := fmt.Sprintf("c%d", i)
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		e.Spawn(who, func(p *sim.Proc) {
			defer func() { live-- }()
			for j := 0; j < opsPer; j++ {
				p.SleepFor(time.Duration(rng.Intn(6)) * time.Millisecond)
				switch rng.Intn(10) {
				case 0, 1: // immediate acquire (EMFILE regime)
					if l := acquire(p, who, AcquireRequest{Resource: "pool", Holder: who, Units: 1 + rng.Int63n(2)}); l != nil {
						tenure(p, who, rng, l)
					} else {
						run.rejects++
					}
				case 2: // the whole pool at once: granted only into an idle pool
					if l := acquire(p, who, AcquireRequest{Resource: "pool", Holder: who, Units: simPoolCap}); l != nil {
						tenure(p, who, rng, l)
					} else {
						run.rejects++
					}
				case 3, 4: // reserve, then claim early, in time or late
					rr := ReserveRequest{Resource: "book", Holder: who, Units: 1 + rng.Int63n(2),
						StartNS: int64(rng.Intn(3)) * int64(5*time.Millisecond), TenureNS: int64(30 * time.Millisecond)}
					b, er := srv.Reserve(rr)
					run.log(who, "reserve", rr, b, er)
					if er != nil {
						run.rejects++
						continue
					}
					run.bookings++
					p.SleepFor(time.Duration(rng.Intn(45)) * time.Millisecond)
					cr := ClaimRequest{Resource: "book", BookingID: b.BookingID}
					l, er := srv.Claim(cr)
					run.log(who, "claim", cr, l, er)
					if er == nil {
						p.SleepFor(time.Duration(rng.Intn(10)) * time.Millisecond)
						release(who, ReleaseRequest{Resource: "book", LeaseID: l.LeaseID, Epoch: l.Epoch, Units: l.Units})
					}
				default: // parked acquire (long poll)
					ar := AcquireRequest{Resource: "pool", Holder: who, Units: 1 + rng.Int63n(2),
						WaitNS: int64(300 * time.Millisecond)}
					if l := acquire(p, who, ar); l != nil {
						tenure(p, who, rng, l)
					} else {
						run.rejects++
					}
				}
			}
		})
	}
	// The sampler observes between operations, at its own ticks.
	e.Spawn("sampler", func(p *sim.Proc) {
		for live > 0 {
			p.SleepFor(3 * time.Millisecond)
			run.check("sampler tick")
		}
	})
	if err := e.Run(); err != nil && run.fail == "" {
		run.fail = err.Error()
	}
	if run.fail != "" {
		return run
	}

	// Quiescence: the engine ran every watchdog, window end and restart.
	for _, name := range []string{"pool", "book"} {
		st, _ := srv.Stats(name)
		switch {
		case st.Outstanding != 0:
			run.fail = fmt.Sprintf("%s: %d units outstanding at quiescence", name, st.Outstanding)
		case st.Grants != st.Releases+st.Revokes:
			run.fail = fmt.Sprintf("%s: conservation: %d grants != %d releases + %d revokes",
				name, st.Grants, st.Releases, st.Revokes)
		}
		if run.fail != "" {
			return run
		}
	}
	leases := slices.Clone(run.leases)
	sort.Slice(leases, func(i, j int) bool { return leases[i].GrantSeq < leases[j].GrantSeq })
	var lastW uint64
	for _, l := range leases {
		if l.Resource != "pool" || l.WaiterSeq == 0 {
			continue // not part of the parked order
		}
		if l.WaiterSeq <= lastW {
			run.fail = fmt.Sprintf("FIFO violated: grant %d has waiter seq %d after %d", l.GrantSeq, l.WaiterSeq, lastW)
			return run
		}
		lastW = l.WaiterSeq
	}
	return run
}

// shrinkSimProp is internal/lease's prefix shrinker: it reduces
// ops-per-client, then client count, as far as the failure persists,
// and returns the smallest failing configuration and its message.
// Runs replay, so that configuration fails every time.
func shrinkSimProp(seed int64, clients, opsPer int, msg string) (int, int, string) {
	for opsPer > 1 {
		if m := simPropRun(seed, clients, opsPer-1).fail; m != "" {
			opsPer, msg = opsPer-1, m
		} else {
			break
		}
	}
	for clients > 1 {
		if m := simPropRun(seed, clients-1, opsPer).fail; m != "" {
			clients, msg = clients-1, m
		} else {
			break
		}
	}
	return clients, opsPer, msg
}

const simClients, simOpsPer = 5, 8

func TestSimPropWireFIFOAndConservation(t *testing.T) {
	var parked, granted, stales, rejects, bookings int64
	for seed := int64(1); seed <= simSeeds; seed++ {
		run := simPropRun(seed, simClients, simOpsPer)
		if run.fail != "" {
			sc, so, sm := shrinkSimProp(seed, simClients, simOpsPer, run.fail)
			t.Fatalf("seed %d: %d clients x %d ops fail (shrunk from %dx%d): %s",
				seed, sc, so, simClients, simOpsPer, sm)
		}
		parked += run.parked
		granted += run.granted
		stales += run.stales
		rejects += run.rejects
		bookings += run.bookings
	}
	// The properties are only as strong as the schedules that reach
	// them: the battery must actually have parked, fenced, rejected
	// and booked somewhere across the seeds.
	if parked == 0 || granted == 0 || stales == 0 || rejects == 0 || bookings == 0 {
		t.Fatalf("vacuous coverage: parked=%d granted=%d stales=%d rejects=%d bookings=%d",
			parked, granted, stales, rejects, bookings)
	}
	t.Logf("%d seeds: parked=%d granted=%d stales=%d rejects=%d bookings=%d",
		simSeeds, parked, granted, stales, rejects, bookings)
}

// A schedule is a function of its seed: two runs of one seed make the
// same operations with the same replies, in the same order. Every seed
// of the battery is run twice, because an order that leaked in from,
// say, a map shows only in the seeds that flush two waiters at once.
func TestSimPropReplays(t *testing.T) {
	for seed := int64(1); seed <= simSeeds; seed++ {
		a := simPropRun(seed, simClients, simOpsPer).history
		b := simPropRun(seed, simClients, simOpsPer).history
		if slices.Equal(a, b) {
			continue
		}
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("seed %d: runs diverge at operation %d:\n  %s\n  %s", seed, i, a[i], b[i])
			}
		}
		t.Fatalf("seed %d: runs made %d and %d operations", seed, len(a), len(b))
	}
}
