package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file proves the timer wheel equivalent to a brute-force ordered
// model under randomized schedule/cancel/pop scripts. The same byte
// interpreter drives both the seeded differential test and
// FuzzTimerWheel, so every corpus entry and every shrunk counterexample
// is a replayable script.
//
// Script encoding (consumed left to right; truncated reads end the
// script, after which the queue is drained and compared to empty):
//
//	op = b&3: 0,1 = schedule (reads class byte + jitter byte)
//	          2   = pop/compare minimum
//	          3   = cancel (reads pick byte; odd picks replay a stale
//	                handle, which must be a no-op)

// wheelDeltas are the schedule distance classes: both edges of every
// wheel level, the tick boundary itself, and beyond-horizon values that
// must ride the overflow list.
var wheelDeltas = []time.Duration{
	0,
	1,
	time.Microsecond,
	1<<tickShift - 1, // last nanosecond of tick 0
	1 << tickShift,   // exactly one tick
	1<<tickShift + 1,
	3 * time.Millisecond,
	250 * time.Millisecond, // the backoff floor the engine is tuned for
	time.Second,
	30 * time.Second,
	10 * time.Minute,
	time.Hour,
	24 * time.Hour,
	10 * 24 * time.Hour,
	40 * 24 * time.Hour,  // deep in level 3
	60 * 24 * time.Hour,  // beyond the ~52-day horizon: overflow
	365 * 24 * time.Hour, // deep overflow
}

// refEntry is the reference model's record of a live timer.
type refEntry struct {
	at  time.Duration
	seq int64
}

// wheelSim drives a timerQueue and the reference model in lockstep.
type wheelSim struct {
	q   timerQueue
	now time.Duration
	seq int64

	nextID int
	ids    []int // live ids in creation order
	nodes  map[int]*timerNode
	gens   map[int]uint32
	ref    map[int]refEntry

	stale []Timer // handles whose tenure ended; canceling must no-op
}

func newWheelSim() *wheelSim {
	return &wheelSim{
		nodes: make(map[int]*timerNode),
		gens:  make(map[int]uint32),
		ref:   make(map[int]refEntry),
	}
}

func (w *wheelSim) schedule(class, jitter byte) {
	d := wheelDeltas[int(class)%len(wheelDeltas)]
	if jitter < 128 {
		// Spread across ticks; even jitters stay tick-aligned often
		// enough to produce same-instant collisions broken by seq.
		d += time.Duration(jitter) * 512 * time.Microsecond
	}
	n := w.q.alloc()
	n.at = w.now + d
	n.seq = w.seq
	id := w.nextID
	n.arg = id
	w.seq++
	w.nextID++
	w.q.insert(n)
	w.ids = append(w.ids, id)
	w.nodes[id] = n
	w.gens[id] = n.gen
	w.ref[id] = refEntry{at: n.at, seq: n.seq}
}

// refMin scans the reference model for the (at, seq) minimum.
func (w *wheelSim) refMin() (id int, e refEntry, ok bool) {
	for i, re := range w.ref {
		if !ok || re.at < e.at || (re.at == e.at && re.seq < e.seq) {
			id, e, ok = i, re, true
		}
	}
	return id, e, ok
}

// pop compares the queue's minimum against the reference and consumes
// it, advancing the model clock the way Engine.Run does.
func (w *wheelSim) pop() error {
	n := w.q.peek()
	rid, re, ok := w.refMin()
	if n == nil {
		if ok {
			return fmt.Errorf("queue empty but reference holds id=%d at=%v", rid, re.at)
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("queue yields id=%v at=%v but reference is empty", n.arg, n.at)
	}
	id := n.arg.(int)
	if id != rid || n.at != re.at || n.seq != re.seq {
		return fmt.Errorf("pop mismatch: queue (id=%d at=%v seq=%d) vs reference (id=%d at=%v seq=%d)",
			id, n.at, n.seq, rid, re.at, re.seq)
	}
	if got := w.q.pop(); got != n {
		return fmt.Errorf("pop returned %v after peek returned %v", got.arg, n.arg)
	}
	if n.at > w.now {
		w.now = n.at
	}
	w.stale = append(w.stale, Timer{n: n, gen: n.gen, at: n.at})
	w.q.recycle(n)
	w.drop(id)
	return nil
}

// cancel mimics Timer.Cancel on a random live handle; odd picks replay
// a stale (fired or previously canceled) handle instead, which must
// leave both models untouched.
func (w *wheelSim) cancel(pick byte) {
	if pick&1 == 1 && len(w.stale) > 0 {
		t := w.stale[int(pick)%len(w.stale)]
		// Inline Timer.Cancel's engine-free core: a generation mismatch
		// must stand down before touching the queue.
		if t.n.gen == t.gen {
			panic("stale handle still live: tenure bookkeeping broken")
		}
		return
	}
	if len(w.ids) == 0 {
		return
	}
	id := w.ids[int(pick)%len(w.ids)]
	n := w.nodes[id]
	if n.gen != w.gens[id] {
		panic("live-handle table out of sync")
	}
	w.q.cancel(n)
	w.stale = append(w.stale, Timer{n: n, gen: w.gens[id], at: n.at})
	w.drop(id)
}

func (w *wheelSim) drop(id int) {
	delete(w.ref, id)
	delete(w.nodes, id)
	delete(w.gens, id)
	for i, v := range w.ids {
		if v == id {
			w.ids = append(w.ids[:i], w.ids[i+1:]...)
			return
		}
	}
}

// checkQueue verifies the queue's bookkeeping against the lists and the
// heap it describes, so a slot taken whole that forgot a count, a level
// share or an occupancy bit fails at the op that broke it, not at some
// much later pop: every slot's list has cnt members, all naming that
// slot, with consistent back-links, and its occupancy bit is set exactly
// when cnt > 0; lvlLen sums its level's cnt; the overflow list holds
// overflowLen members; the near heap is in heap order with each node's
// index its position; nodes on no list — near, free — have nil links;
// and pending() is the model's size.
func (w *wheelSim) checkQueue() error {
	q := &w.q
	// list walks one doubly-linked list, checking that each member sits
	// at loc (and slot, for a wheel level) and links back to the last.
	list := func(head *timerNode, loc int8, slot int) (int, error) {
		k := 0
		var prev *timerNode
		for n := head; n != nil; n = n.next {
			if n.prev != prev {
				return k, fmt.Errorf("member %d of list loc=%d slot=%d has a broken back-link", k, loc, slot)
			}
			if n.loc != loc || (loc < wheelLevels && int(n.slot) != slot) || n.index != -1 {
				return k, fmt.Errorf("member %d of list loc=%d slot=%d says loc=%d slot=%d index=%d", k, loc, slot, n.loc, n.slot, n.index)
			}
			if k++; k > len(w.ref) {
				return k, fmt.Errorf("list loc=%d slot=%d outruns the %d live timers", loc, slot, len(w.ref))
			}
			prev = n
		}
		return k, nil
	}
	for lvl := 0; lvl < wheelLevels; lvl++ {
		sum := 0
		for slot := 0; slot < wheelSlots; slot++ {
			k, err := list(q.slots[lvl][slot], int8(lvl), slot)
			if err != nil {
				return err
			}
			if int32(k) != q.cnt[lvl][slot] {
				return fmt.Errorf("level %d slot %d lists %d nodes, cnt %d", lvl, slot, k, q.cnt[lvl][slot])
			}
			if occ := q.occ[lvl][slot>>6]>>(slot&63)&1 == 1; occ != (k > 0) {
				return fmt.Errorf("level %d slot %d: occupancy bit %v with %d nodes", lvl, slot, occ, k)
			}
			sum += k
		}
		if sum != q.lvlLen[lvl] {
			return fmt.Errorf("level %d: lvlLen %d, slots hold %d", lvl, q.lvlLen[lvl], sum)
		}
	}
	if k, err := list(q.overflow, locOverflow, 0); err != nil {
		return err
	} else if k != q.overflowLen {
		return fmt.Errorf("overflow lists %d nodes, overflowLen %d", k, q.overflowLen)
	}
	for i, n := range q.near {
		if n.loc != locNear || int(n.index) != i || n.prev != nil || n.next != nil {
			return fmt.Errorf("near[%d]: loc=%d index=%d links=%v/%v", i, n.loc, n.index, n.prev != nil, n.next != nil)
		}
		if i > 0 && before(n, q.near[(i-1)/2]) {
			return fmt.Errorf("near[%d] (at=%v seq=%d) precedes its parent", i, n.at, n.seq)
		}
	}
	for i, n := range q.free {
		if n.loc != locNone || n.index != -1 || n.prev != nil || n.next != nil {
			return fmt.Errorf("free[%d]: loc=%d index=%d links=%v/%v", i, n.loc, n.index, n.prev != nil, n.next != nil)
		}
	}
	if p := q.pending(); p != len(w.ref) {
		return fmt.Errorf("queue reports %d pending, model holds %d", p, len(w.ref))
	}
	return nil
}

// runWheelScript executes a byte script, checking the queue's
// bookkeeping after every op, then drains both models to empty. It
// returns the byte offset of the op that diverged (for the shrinker)
// and the divergence, or (-1, nil).
func runWheelScript(script []byte) (int, error) {
	w := newWheelSim()
	i := 0
	for i < len(script) {
		op := i
		b := script[i]
		i++
		switch b & 3 {
		case 0, 1:
			if i+2 > len(script) {
				i = len(script)
				continue
			}
			w.schedule(script[i], script[i+1])
			i += 2
		case 2:
			if err := w.pop(); err != nil {
				return op, err
			}
		case 3:
			if i >= len(script) {
				continue
			}
			w.cancel(script[i])
			i++
		}
		if err := w.checkQueue(); err != nil {
			return op, err
		}
	}
	for len(w.ref) > 0 || w.q.peek() != nil {
		if err := w.pop(); err != nil {
			return len(script), fmt.Errorf("drain: %w", err)
		}
		if err := w.checkQueue(); err != nil {
			return len(script), fmt.Errorf("drain: %w", err)
		}
	}
	if p := w.q.pending(); p != 0 {
		return len(script), fmt.Errorf("drained queue still reports %d pending entries", p)
	}
	return -1, nil
}

// wheelScript generates the deterministic random script for a seed,
// shared by the differential test and the fuzz corpus.
func wheelScript(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, size)
	rng.Read(script)
	return script
}

// TestWheelDifferential proves the wheel against the brute-force model
// over randomized scripts: 32 seeds, ~1300 operations each, covering
// every level, the overflow list, tick-boundary deadlines, same-instant
// collisions, stale-handle cancels, and full drains. On divergence it
// shrinks to the shortest failing prefix so the report is replayable.
func TestWheelDifferential(t *testing.T) {
	const seeds = 32
	for seed := int64(1); seed <= seeds; seed++ {
		script := wheelScript(seed, 4096)
		at, err := runWheelScript(script)
		if err == nil {
			continue
		}
		// Prefix shrinker: find the shortest prefix that still fails.
		for m := 1; m <= len(script); m++ {
			if _, perr := runWheelScript(script[:m]); perr != nil {
				t.Fatalf("seed %d diverged at offset %d: %v\nminimal failing prefix (%d bytes): %x",
					seed, at, err, m, script[:m])
			}
		}
		t.Fatalf("seed %d diverged at offset %d: %v (not reproducible on any prefix?)", seed, at, err)
	}
}

// TestWheelLongHorizon walks the wheel across many level-boundary
// crossings with sparse far-future timers, the regime where a lazily
// cascading implementation can strand a node in an outer level (the
// deadline simply never fires). Caught live: an earlier draft only
// cascaded levels at or below the entry level.
func TestWheelLongHorizon(t *testing.T) {
	e := New(1)
	var fired []int
	for i, d := range []time.Duration{
		time.Millisecond, time.Second, time.Minute, 5 * time.Minute,
		time.Hour, 13 * time.Hour, 3 * 24 * time.Hour, 53 * 24 * time.Hour,
		400 * 24 * time.Hour,
	} {
		id := i
		at := d
		e.Schedule(d, func() {
			fired = append(fired, id)
			if e.Elapsed() != at {
				t.Errorf("timer %d fired at %v, want %v", id, e.Elapsed(), at)
			}
		})
	}
	// Keep every level busy so no shortcut through an empty wheel exists.
	var tick func()
	tick = func() {
		if e.Elapsed() < 401*24*time.Hour {
			e.Schedule(17*time.Minute, tick)
		}
	}
	tick()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range fired {
		if i != id {
			t.Fatalf("firing order %v not sorted by deadline", fired)
		}
	}
	if len(fired) != 9 {
		t.Fatalf("fired %d of 9 timers", len(fired))
	}
}

// FuzzTimerWheel feeds arbitrary byte scripts to the differential
// interpreter. The corpus seeds with the same deterministic scripts the
// differential test uses plus handmade edge scripts (dense same-tick
// collisions, overflow churn, cancel storms).
func FuzzTimerWheel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(wheelScript(seed, 512))
	}
	// Same-instant collisions: schedule the same class repeatedly with
	// no jitter, then pop everything.
	collide := make([]byte, 0, 64)
	for i := 0; i < 12; i++ {
		collide = append(collide, 0, 8, 200)
	}
	for i := 0; i < 12; i++ {
		collide = append(collide, 2)
	}
	f.Add(collide)
	// Overflow churn: far-future schedules interleaved with cancels.
	over := make([]byte, 0, 64)
	for i := 0; i < 8; i++ {
		over = append(over, 0, 15, 255, 0, 16, 255, 3, byte(i*2))
	}
	f.Add(over)
	// Near-heap removal that must sift up: six due timers at 0, X, 1ns,
	// X, X, 1µs (X the tick's last nanosecond) lay the heap out as
	// inserted; canceling the X at position 4 moves the 1µs from
	// position 5 into the hole, below an X it must climb past.
	f.Add([]byte{0, 0, 255, 0, 3, 255, 0, 1, 255, 0, 3, 255, 0, 3, 255, 0, 2, 255, 3, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<14 {
			script = script[:1<<14]
		}
		if at, err := runWheelScript(script); err != nil {
			t.Fatalf("diverged at offset %d: %v", at, err)
		}
	})
}
