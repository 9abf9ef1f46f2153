package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestScheduleCancelHeapBounded is the regression test for the
// canceled-timer leak: a schedule/cancel loop (the WithTimeout pattern)
// must not grow the timer structure at all. Cancel removes the node
// from wherever it sits, so nothing is pending after any cancel.
func TestScheduleCancelHeapBounded(t *testing.T) {
	e := New(1)
	for i := 0; i < 100_000; i++ {
		tm := e.Schedule(time.Hour, func() { t.Error("canceled timer fired") })
		tm.Cancel()
		if l := e.TimerHeapLen(); l != 0 {
			t.Fatalf("cycle %d: %d timers pending after cancel, want 0", i, l)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelNearHeap covers Cancel on near-heap residents, which the
// hour-away (wheel-resident) timers above never reach: removing the
// heap's root, middle and last entries must leave nothing behind, keep
// the survivors firing in (at, seq) order, and end the handle's tenure
// so it stays inert once its node is reused.
func TestCancelNearHeap(t *testing.T) {
	e := New(1)
	delays := []time.Duration{0, 30, 10, 0, 20, 10, 40, 0, 50, 20} // µs: all inside one tick
	var fired, want []int
	arm := func() []Timer {
		tms := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			tms[i] = e.Schedule(d*time.Microsecond, func() { fired = append(fired, i) })
		}
		return tms
	}
	// cancelAt cancels the timer at near-heap position pos through its
	// handle and returns which one it was.
	cancelAt := func(tms []Timer, pos int) int {
		n := e.q.near[pos]
		for i, tm := range tms {
			if tm.n == n && tm.gen == n.gen {
				tm.Cancel()
				return i
			}
		}
		t.Fatalf("no live handle for near[%d]", pos)
		return -1
	}
	// Inside a callback the clock sits in the tick the wheel just
	// drained, so zero and sub-tick delays file straight into the near
	// heap.
	e.Schedule(5*time.Millisecond, func() {
		old := arm()
		if len(e.q.near) != len(delays) {
			t.Fatalf("near heap holds %d of %d timers; setup drifted", len(e.q.near), len(delays))
		}
		// Cancel everything, rotating root / last / middle.
		for k := len(delays); k > 0; k-- {
			cancelAt(old, [3]int{0, k - 1, k / 2}[k%3])
			if got := e.TimerHeapLen(); got != k-1 {
				t.Fatalf("%d timers pending after cancel with %d armed, want %d", got, k, k-1)
			}
		}
		// A fresh batch takes over the canceled nodes; the stale
		// handles to them must not touch it.
		free := len(e.q.free)
		tms := arm()
		for _, tm := range old {
			tm.Cancel()
		}
		if got := e.TimerHeapLen(); got != len(delays) || len(e.q.free) != free-len(delays) {
			t.Fatalf("%d pending after stale cancels, want %d (free list %d -> %d)", got, len(delays), free, len(e.q.free))
		}
		// Cancel root, last and middle; the rest must fire by (delay,
		// schedule order).
		gone := map[int]bool{}
		gone[cancelAt(tms, 0)] = true
		gone[cancelAt(tms, len(e.q.near)-1)] = true
		gone[cancelAt(tms, len(e.q.near)/2)] = true
		for _, d := range []time.Duration{0, 10, 20, 30, 40, 50} {
			for i := range delays {
				if delays[i] == d && !gone[i] {
					want = append(want, i)
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(delays)-3 || fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestTimerHandleGenerations pins the recycle semantics: a handle to a
// fired timer must stay inert even after its node is reused by a later
// Schedule, and canceling it must not cancel the node's next occupant.
func TestTimerHandleGenerations(t *testing.T) {
	e := New(1)
	var firstFired, secondFired bool
	first := e.Schedule(time.Second, func() { firstFired = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !firstFired {
		t.Fatal("first timer did not fire")
	}
	// The second Schedule reuses the first timer's node from the free
	// list; a stale Cancel on the old handle must not touch it.
	second := e.Schedule(time.Second, func() { secondFired = true })
	first.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !secondFired {
		t.Fatal("stale handle Cancel hit the recycled node's next occupant")
	}
	if got := second.When(); got != 2*time.Second {
		t.Fatalf("When() = %v, want 2s", got)
	}
	if first.When() != time.Second {
		t.Fatalf("fired handle When() = %v, want 1s", first.When())
	}
}

// TestTimerZeroValueInert pins that the zero Timer is safe to use.
func TestTimerZeroValueInert(t *testing.T) {
	var tm Timer
	tm.Cancel() // must not panic
	if tm.Scheduled() {
		t.Fatal("zero Timer reports Scheduled")
	}
}

// TestTimerSelfCancelDuringFire pins the context-deadline pattern: a
// callback canceling its own timer (already popped from the heap) must
// be a no-op.
func TestTimerSelfCancelDuringFire(t *testing.T) {
	e := New(1)
	var tm Timer
	tm = e.Schedule(time.Second, func() { tm.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Quiesced() {
		t.Fatal("engine not quiesced")
	}
}

// TestRunQueueRingGrowth exercises ring growth and wraparound: spawn
// waves of processes larger than the initial ring while the head has
// advanced, and check FIFO order is preserved.
func TestRunQueueRingGrowth(t *testing.T) {
	e := New(1)
	var order []int
	for wave := 0; wave < 3; wave++ {
		w := wave
		e.Spawn("spawner", func(p *Proc) {
			for i := 0; i < 40; i++ {
				id := w*100 + i
				e.Spawn("c", func(p *Proc) {
					order = append(order, id)
				})
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 120 {
		t.Fatalf("ran %d procs, want 120", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("run order not FIFO at %d: %d then %d", i, order[i-1], order[i])
		}
	}
}
