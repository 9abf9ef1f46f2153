package lease

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// The property harness drives a Manager with randomized, seeded
// sequences of acquire / try-acquire / take / renew / release / put /
// wedge ops from several concurrent clients and checks two properties
// the rest of the repository leans on:
//
//   - FIFO grant order: clients that park are granted in park order
//     (timed-out waiters drop out without reordering the survivors),
//     raw Take waiters and lease waiters alike, since they share one
//     queue;
//   - units conservation: every granted lease ends in exactly one of
//     release or revocation, every raw take in one Put, and at
//     quiescence no units are in use — grants == releases + revokes,
//     with the manager's own counters agreeing with the harness's
//     ledger.
//
// A failure is re-run with progressively smaller op counts and client
// counts to report the smallest failing configuration.

const (
	propCapacity = 3
	propQuantum  = 10 * time.Second
)

// propLedger is the harness's model of what the manager must agree
// with. Procs mutate it without locks: the simulator is cooperatively
// scheduled, so ledger updates between blocking points are atomic.
type propLedger struct {
	parkOrder  []string
	grantOrder []string
	granted    map[string]bool
	grants     int64
	releases   int64 // lease releases and raw puts
	revokes    int64
	timeouts   int64
	rawParked  int64 // Take calls that queued
}

// leasePropRun executes one randomized schedule and returns the
// harness ledger plus a failure description ("" if every property
// held).
func leasePropRun(seed int64, clients, opsPer int) (*propLedger, string) {
	e := sim.New(seed)
	m := New(e.RT(), "res", propCapacity, propQuantum)
	led := &propLedger{granted: map[string]bool{}}

	for i := 0; i < clients; i++ {
		i := i
		holder := fmt.Sprintf("c%d", i)
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		e.Spawn(holder, func(p *sim.Proc) {
			for j := 0; j < opsPer; j++ {
				tag := fmt.Sprintf("%s#%d", holder, j)
				units := 1 + rng.Int63n(propCapacity)
				p.SleepFor(time.Duration(rng.Intn(5000)) * time.Millisecond)

				op := rng.Intn(6)
				if op == 0 {
					// Non-blocking path: a reject starts the
					// starvation clock but grants nothing.
					l, ok := m.TryAcquire(p, e.Context(), holder, units)
					if !ok {
						continue
					}
					led.grants++
					finishTenure(p, rng, l, led)
					continue
				}

				// Mirror Acquire's immediate-grant condition exactly:
				// anything else parks in the FIFO queue.
				// Take parks under the same condition, in the same queue.
				wouldPark := units > m.Sense().Free() || m.QueueLen() > 0
				if wouldPark {
					led.parkOrder = append(led.parkOrder, tag)
				}
				ctx, cancel := p.WithTimeout(e.Context(), time.Duration(5+rng.Intn(90))*time.Second)
				var l Lease
				var err error
				if op == 1 {
					if wouldPark {
						led.rawParked++
					}
					err = m.Take(p, ctx, units)
				} else {
					l, err = m.Acquire(p, ctx, holder, units)
				}
				if err != nil {
					led.timeouts++
					cancel()
					continue
				}
				if wouldPark {
					led.grantOrder = append(led.grantOrder, tag)
					led.granted[tag] = true
				}
				led.grants++
				if l != (Lease{}) {
					finishTenure(p, rng, l, led)
				} else {
					// A raw holder has no watchdog: it holds for a
					// while, then puts the units back itself.
					p.SleepFor(time.Duration(rng.Int63n(int64(propQuantum))))
					m.Put(units)
					led.releases++
				}
				cancel()
			}
		})
	}
	if err := e.Run(); err != nil {
		return led, fmt.Sprintf("engine: %v", err)
	}

	if m.Sense().InUse != 0 || m.Outstanding() != 0 {
		return led, fmt.Sprintf("conservation: %d units booked, %d outstanding at quiescence", m.Sense().InUse, m.Outstanding())
	}
	if led.grants != led.releases+led.revokes {
		return led, fmt.Sprintf("conservation: %d grants != %d releases + %d revokes",
			led.grants, led.releases, led.revokes)
	}
	if m.Acquires != led.grants {
		return led, fmt.Sprintf("manager counted %d acquires, harness granted %d", m.Acquires, led.grants)
	}
	if m.Revokes != led.revokes {
		return led, fmt.Sprintf("manager counted %d revokes, harness saw %d", m.Revokes, led.revokes)
	}
	if m.Timeouts != led.timeouts {
		return led, fmt.Sprintf("manager counted %d timeouts, harness saw %d", m.Timeouts, led.timeouts)
	}

	// FIFO: drop parked waiters that never got granted (they timed
	// out); the surviving park order must be the grant order.
	want := make([]string, 0, len(led.grantOrder))
	for _, tag := range led.parkOrder {
		if led.granted[tag] {
			want = append(want, tag)
		}
	}
	if !reflect.DeepEqual(want, led.grantOrder) {
		return led, fmt.Sprintf("FIFO violated:\n  parked+granted %v\n  grant order    %v", want, led.grantOrder)
	}
	return led, ""
}

// finishTenure holds a granted lease in one of the randomized styles —
// wedge until revoked, renew mid-tenure, hold briefly, or release at
// once — then records how the tenure ended.
func finishTenure(p *sim.Proc, rng *rand.Rand, l Lease, led *propLedger) {
	switch rng.Intn(4) {
	case 0: // wedge: never renew, never release; the watchdog reclaims
		_ = p.Sleep(l.Ctx(), 50*propQuantum)
	case 1: // renew on time, then overstay the renewed tenure or not
		p.SleepFor(propQuantum / 2)
		l.Renew()
		_ = p.Sleep(l.Ctx(), time.Duration(rng.Int63n(int64(propQuantum))))
	case 2: // hold for a random fraction of the quantum
		_ = p.Sleep(l.Ctx(), time.Duration(rng.Int63n(int64(propQuantum))))
	case 3: // release immediately
	}
	if l.Revoked() {
		led.revokes++
	} else {
		led.releases++
	}
	l.Release()
}

func TestPropFIFOAndUnitsConservation(t *testing.T) {
	const clients, opsPer = 6, 12
	var parked, rawParked, granted, revoked, timedOut int64
	for seed := int64(1); seed <= 25; seed++ {
		led, msg := leasePropRun(seed, clients, opsPer)
		if msg != "" {
			sc, so, sm := shrinkLeaseProp(seed, clients, opsPer, msg)
			t.Fatalf("seed %d: %d clients x %d ops fail (shrunk from %dx%d): %s",
				seed, sc, so, clients, opsPer, sm)
		}
		parked += int64(len(led.parkOrder))
		rawParked += led.rawParked
		granted += led.grants
		revoked += led.revokes
		timedOut += led.timeouts
	}
	// The properties are only as strong as the schedules that reach
	// them: a generator drift that stops producing contention, queued
	// raw takes, revoked tenures, or abandoned waits would hollow the
	// test out silently.
	if parked == 0 || rawParked == 0 || granted == 0 || revoked == 0 || timedOut == 0 {
		t.Fatalf("vacuous coverage: parked=%d rawParked=%d granted=%d revoked=%d timedOut=%d",
			parked, rawParked, granted, revoked, timedOut)
	}
}

// shrinkLeaseProp reduces ops-per-client, then client count, as far as
// the failure persists, returning the smallest failing configuration
// and its message.
func shrinkLeaseProp(seed int64, clients, opsPer int, msg string) (int, int, string) {
	for opsPer > 1 {
		if _, m := leasePropRun(seed, clients, opsPer-1); m != "" {
			opsPer, msg = opsPer-1, m
		} else {
			break
		}
	}
	for clients > 1 {
		if _, m := leasePropRun(seed, clients-1, opsPer); m != "" {
			clients, msg = clients-1, m
		} else {
			break
		}
	}
	return clients, opsPer, msg
}
