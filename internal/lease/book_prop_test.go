package lease

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// The book property harness mirrors prop_test.go: randomized, seeded
// schedules of reserve / cancel / lapse / claim / wedge / short-renew
// ops from several concurrent clients, checked against three
// properties the fourth discipline leans on:
//
//   - no-overlap: the final effective occupancy of the book — every
//     admitted booking charged from its window start to the moment the
//     book actually retired it — never exceeds capacity at any instant;
//   - units conservation: every booking ends in exactly one of cancel,
//     lapse, or claim; every claim ends in exactly one of release or
//     revocation; at quiescence nothing is outstanding and the book's
//     own counters agree with the harness ledger;
//   - FIFO admission among same-window requests: if a request was
//     refused, an identical request (same window, same units) arriving
//     later with no booking retired in between must be refused too —
//     the book never reorders admission.
//
// A failure is re-run with progressively smaller op counts and client
// counts to report the smallest failing configuration.

const (
	bookPropCapacity = 4
	bookPropSlot     = 10 * time.Second // window starts/tenures are slot-aligned
)

// bookDecision is one admission verdict with the retirement epoch it
// was made under: the count of bookings retired (canceled, lapsed,
// released, revoked) so far. Within one epoch, capacity over any fixed
// window only shrinks, which is what makes the FIFO check sound.
type bookDecision struct {
	window   string
	units    int64
	admitted bool
	epoch    int64
}

// bookInterval is one admitted booking's final effective occupancy.
type bookInterval struct {
	start, end time.Duration
	units      int64
}

// bookLedger is the harness's model of what the book must agree with.
type bookLedger struct {
	decisions []bookDecision
	intervals []bookInterval
	accepted  int64
	rejects   int64
	releases  int64
	wedges    int64
	deadWins  int64 // mid-window revocations whose window stayed booked
}

// bookPropRun executes one randomized schedule and returns the ledger
// plus a failure description ("" if every property held).
func bookPropRun(seed int64, clients, opsPer int) (*bookLedger, string) {
	e := sim.New(seed)
	b := NewBook(e.RT(), "res", bookPropCapacity)
	led := &bookLedger{}
	var failure string
	fail := func(format string, args ...any) {
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
	}
	epoch := func() int64 { return b.Cancels + b.Lapses + b.Tenure().Revokes + led.releases }

	for i := 0; i < clients; i++ {
		holder := fmt.Sprintf("c%d", i)
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		e.Spawn(holder, func(p *sim.Proc) {
			for j := 0; j < opsPer; j++ {
				p.SleepFor(time.Duration(rng.Intn(15000)) * time.Millisecond)
				now := p.Elapsed()
				start := now.Truncate(bookPropSlot) + time.Duration(rng.Intn(3))*bookPropSlot
				if start < now {
					start += bookPropSlot
				}
				tenure := time.Duration(1+rng.Intn(2)) * bookPropSlot
				units := int64(1 + rng.Intn(2))
				end := start + tenure

				r, err := b.Reserve(p, holder, start, tenure, units)
				led.decisions = append(led.decisions, bookDecision{
					window:   fmt.Sprintf("%d+%d", start, tenure),
					units:    units,
					admitted: err == nil,
					epoch:    epoch(),
				})
				if err != nil {
					re := core.Rejection(err)
					if re == nil || re.Shortfall <= 0 {
						fail("rejection without a positive typed shortfall: %v", err)
						return
					}
					led.rejects++
					continue
				}
				led.accepted++
				effEnd := end // lapse, wedge, and dead windows charge to the boundary

				switch rng.Intn(5) {
				case 0: // cancel at a random moment (or lapse if we oversleep)
					p.SleepFor(time.Duration(rng.Int63n(int64(end - now + 5*time.Second))))
					if r.state == resPending {
						r.Cancel()
						switch t := p.Elapsed(); {
						case t <= start:
							effEnd = start // never occupied
						case t < end:
							effEnd = t
						}
					}
				case 1: // walk away: the booking lapses unclaimed
				default: // claim once the window opens
					if start > p.Elapsed() {
						p.SleepFor(start - p.Elapsed())
					}
					l, cerr := r.Claim(p, e.Context())
					if cerr != nil {
						fail("claim at window start failed: %v", cerr)
						return
					}
					switch rng.Intn(3) {
					case 0: // wedge: the watchdog must fire exactly at the boundary
						led.wedges++
						_ = p.Sleep(l.Ctx(), 50*tenure)
						if !l.Revoked() {
							fail("wedged holder was not revoked")
							return
						}
						if p.Elapsed() != end {
							fail("revocation at %v, want exactly the window boundary %v", p.Elapsed(), end)
							return
						}
					case 1: // hold for part of the window, then release
						_ = p.Sleep(l.Ctx(), time.Duration(rng.Int63n(int64(end-p.Elapsed()))))
						if l.Revoked() {
							fail("holder revoked before the window boundary")
							return
						}
						effEnd = p.Elapsed()
						led.releases++
						r.Release()
					case 2: // shorten the tenure by renewing small, then oversleep:
						// a mid-window revocation whose dead window stays booked
						d := (end - p.Elapsed()) / 4
						r.Renew(d)
						_ = p.Sleep(l.Ctx(), 3*d)
						if !l.Revoked() {
							effEnd = p.Elapsed()
							led.releases++
							r.Release()
						} else {
							led.deadWins++
							if b.Booked(p.Elapsed(), end) < units {
								fail("revoked mid-window but the dead window is not booked")
								return
							}
						}
					}
				}
				if effEnd > start {
					led.intervals = append(led.intervals, bookInterval{start: start, end: effEnd, units: units})
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		return led, fmt.Sprintf("engine: %v", err)
	}
	if failure != "" {
		return led, failure
	}

	// Units conservation, against the book's own counters.
	if b.Reserves != led.accepted || b.Rejects != led.rejects {
		return led, fmt.Sprintf("book counted %d reserves / %d rejects, harness saw %d / %d",
			b.Reserves, b.Rejects, led.accepted, led.rejects)
	}
	if b.Reserves != b.Cancels+b.Lapses+b.Admits {
		return led, fmt.Sprintf("conservation: %d reserves != %d cancels + %d lapses + %d admits",
			b.Reserves, b.Cancels, b.Lapses, b.Admits)
	}
	if b.Admits != led.releases+b.Tenure().Revokes {
		return led, fmt.Sprintf("conservation: %d admits != %d releases + %d revokes",
			b.Admits, led.releases, b.Tenure().Revokes)
	}
	if b.Tenure().Acquires != b.Admits {
		return led, fmt.Sprintf("tenure manager granted %d, book admitted %d", b.Tenure().Acquires, b.Admits)
	}
	if b.Tenure().Sense().InUse != 0 || b.Outstanding() != 0 {
		return led, fmt.Sprintf("quiescence: %d units in use, %d bookings outstanding",
			b.Tenure().Sense().InUse, b.Outstanding())
	}

	// No-overlap over the final effective occupancy.
	for _, iv := range led.intervals {
		var sum int64
		for _, other := range led.intervals {
			if other.start <= iv.start && iv.start < other.end {
				sum += other.units
			}
		}
		if sum > bookPropCapacity {
			return led, fmt.Sprintf("overlap: %d units booked at %v, capacity %d", sum, iv.start, bookPropCapacity)
		}
	}

	// FIFO admission among same-window requests: a refusal followed by
	// an identical admission with nothing retired in between means the
	// book reordered arrivals.
	for i, di := range led.decisions {
		if di.admitted {
			continue
		}
		for _, dj := range led.decisions[i+1:] {
			if dj.window == di.window && dj.units == di.units && dj.epoch == di.epoch && dj.admitted {
				return led, fmt.Sprintf("FIFO violated: window %s units %d rejected then admitted within epoch %d",
					di.window, di.units, di.epoch)
			}
		}
	}
	return led, ""
}

func TestBookPropNoOverlapConservationFIFO(t *testing.T) {
	const clients, opsPer = 6, 10
	var accepted, rejects, releases, wedges, deadWins int64
	for seed := int64(1); seed <= 25; seed++ {
		led, msg := bookPropRun(seed, clients, opsPer)
		if msg != "" {
			sc, so, sm := shrinkBookProp(seed, clients, opsPer, msg)
			t.Fatalf("seed %d: %d clients x %d ops fail (shrunk from %dx%d): %s",
				seed, sc, so, clients, opsPer, sm)
		}
		accepted += led.accepted
		rejects += led.rejects
		releases += led.releases
		wedges += led.wedges
		deadWins += led.deadWins
	}
	// The properties are only as strong as the schedules that reach
	// them: every terminal path and the contention that makes FIFO and
	// no-overlap non-trivial must actually occur across the seed set.
	if accepted == 0 || rejects == 0 || releases == 0 || wedges == 0 || deadWins == 0 {
		t.Fatalf("vacuous coverage: accepted=%d rejects=%d releases=%d wedges=%d deadWindows=%d",
			accepted, rejects, releases, wedges, deadWins)
	}
}

// shrinkBookProp reduces ops-per-client, then client count, as far as
// the failure persists, returning the smallest failing configuration
// and its message.
func shrinkBookProp(seed int64, clients, opsPer int, msg string) (int, int, string) {
	for opsPer > 1 {
		if _, m := bookPropRun(seed, clients, opsPer-1); m != "" {
			opsPer, msg = opsPer-1, m
		} else {
			break
		}
	}
	for clients > 1 {
		if _, m := bookPropRun(seed, clients-1, opsPer); m != "" {
			clients, msg = clients-1, m
		} else {
			break
		}
	}
	return clients, opsPer, msg
}
