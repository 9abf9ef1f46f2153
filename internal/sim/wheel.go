package sim

import (
	"math"
	"math/bits"
	"time"
)

// This file implements the engine's timer structure: a hierarchical
// timer wheel in front of a small exact-order heap.
//
// The paper's disciplines are backoff machines, so the engine's timer
// workload is dominated by schedule-then-cancel: every guarded attempt
// arms a deadline it almost always cancels. A binary heap pays O(log n)
// to admit each of those doomed entries and O(log n) again to remove
// it. The wheel pays O(1) to admit and O(1) to remove: a node sits in a
// doubly-linked slot list, so cancellation is an unlink, and the
// 10^6-timer regime the scale figure runs stops rippling a
// million-entry heap on every operation.
//
// Geometry: virtual time is bucketed into ticks of 2^20 ns (~1.05 ms),
// and the wheel has 4 levels of 256 slots, level L spanning 256^(L+1)
// ticks — about 52 days of virtual time in total. Deadlines beyond the
// horizon go to an overflow list (rebased into the wheel if the
// simulation ever gets near them).
//
// Exactness: ticks are coarser than timestamps, and the engine's
// contract is exact (at, seq) firing order. The wheel therefore never
// fires a node directly; it drains due slots into the "near" heap,
// which holds only nodes with tick(at) <= cur and pops them in exact
// order. Every node in the wheel has tick(at) > cur, hence a strictly
// later timestamp than anything in the near heap, so the near heap's
// minimum is the queue's minimum. The heap stays small — one tick's
// worth of timers plus overdue inserts — so its log factor is paid on
// a handful of entries, not the whole population.
//
// cur is the queue's wheel position: the last tick whose nodes have
// been moved to the near heap. It advances lazily, skipping empty
// regions via per-level occupancy bitmaps, and may run ahead of the
// engine's clock when the next timer is far away; inserts that land at
// or before cur (overdue from the queue's point of view) go straight to
// the near heap, preserving exact order.
//
// Each node is touched only as often as its life requires. The near
// heap is typed: it compares (at, seq) inline and moves nodes through a
// hole instead of swapping them through an interface. A slot that
// comes due — drained to the near heap or cascaded a level down — is
// detached whole: its head, count, occupancy bit and level share are
// cleared once, then its nodes are walked and re-filed one at a time,
// so the cascade and slot-occupancy counters read exactly what
// per-node unlinking read. Only cancel and overflow readmission unlink
// single nodes. New nodes are taken from the unused tail of the newest
// block, so minting a block writes nothing but the block.
const (
	tickShift   = 20 // one tick = 2^20 ns ≈ 1.05 ms of virtual time
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelWords  = wheelSlots / 64 // occupancy bitmap words per level
)

// timerNode location markers (timerNode.loc). Values 0..wheelLevels-1
// mean "in that wheel level's slot list".
const (
	locNone     int8 = -2          // popped (firing) or on the free list
	locNear     int8 = -1          // in the near heap (index = heap position)
	locOverflow int8 = wheelLevels // on the overflow list, beyond the horizon
)

// tickOf buckets a virtual timestamp into a wheel tick.
func tickOf(at time.Duration) uint64 { return uint64(at) >> tickShift }

// timerQueue is the engine's pending-timer structure.
type timerQueue struct {
	near []*timerNode // tick(at) <= cur, a binary heap in exact (at, seq) order

	cur    uint64                              // last tick drained into near
	slots  [wheelLevels][wheelSlots]*timerNode // doubly-linked slot lists
	occ    [wheelLevels][wheelWords]uint64     // slot-occupancy bitmaps
	cnt    [wheelLevels][wheelSlots]int32      // per-slot node counts
	lvlLen [wheelLevels]int                    // nodes per level

	overflow    *timerNode // beyond the wheel horizon (~52 virtual days)
	overflowLen int

	free   []*timerNode // recycled nodes, taken before fresh ones
	fresh  []timerNode  // the newest block's never-used tail
	minted bool         // the small first block has been minted

	// Health counters, surfaced via the Engine's wheel observability
	// accessors and the internal/obs gauges.
	cascades int64 // nodes re-dispersed by level cascades
	maxSlot  int32 // high-water mark of a single slot's occupancy
}

// timerBlock is the arena granularity for timer nodes: nodes are minted
// in slabs so a million-timer population is a few thousand allocations
// with dense layout, not a million scattered ones. The first slab is
// only timerBlock0 nodes, for the many engines that arm a timer or two
// in their whole life (see procBlock0).
const (
	timerBlock  = 256
	timerBlock0 = 8
)

// alloc takes a node from the free list or, when it is empty, from the
// newest block's unused tail, minting a fresh block when both run dry.
func (q *timerQueue) alloc() *timerNode {
	if k := len(q.free); k > 0 {
		n := q.free[k-1]
		q.free[k-1] = nil
		q.free = q.free[:k-1]
		return n
	}
	if len(q.fresh) == 0 {
		size := timerBlock
		if !q.minted {
			q.minted = true
			size = timerBlock0
		}
		q.fresh = make([]timerNode, size)
	}
	n := &q.fresh[0]
	q.fresh = q.fresh[1:]
	n.index = -1
	n.loc = locNone
	return n
}

// recycle returns a node to the free list. Bumping the generation
// invalidates every outstanding handle to the old tenure, so a late
// Cancel on a fired timer can never hit the node's next user.
func (q *timerQueue) recycle(n *timerNode) {
	n.gen++
	n.fn = nil
	n.arg = nil
	n.loc = locNone
	q.free = append(q.free, n)
}

// insert files n by its tick distance from cur: overdue ticks go to the
// near heap (exact order), future ticks to the shallowest level whose
// span contains them, and deadlines beyond the horizon to overflow.
// n's list links must be nil.
func (q *timerQueue) insert(n *timerNode) {
	t := tickOf(n.at)
	if t <= q.cur {
		q.push(n)
		return
	}
	switch delta := t - q.cur; {
	case delta < 1<<wheelBits:
		q.place(n, 0, int(t&wheelMask))
	case delta < 1<<(2*wheelBits):
		q.place(n, 1, int((t>>wheelBits)&wheelMask))
	case delta < 1<<(3*wheelBits):
		q.place(n, 2, int((t>>(2*wheelBits))&wheelMask))
	case delta < 1<<(4*wheelBits):
		q.place(n, 3, int((t>>(3*wheelBits))&wheelMask))
	default:
		n.loc = locOverflow
		n.next = q.overflow
		if q.overflow != nil {
			q.overflow.prev = n
		}
		q.overflow = n
		q.overflowLen++
	}
}

// place pushes n onto the front of a wheel slot's list.
func (q *timerQueue) place(n *timerNode, lvl, slot int) {
	n.loc = int8(lvl)
	n.slot = uint8(slot)
	n.next = q.slots[lvl][slot]
	if n.next != nil {
		n.next.prev = n
	}
	q.slots[lvl][slot] = n
	q.occ[lvl][slot>>6] |= 1 << (slot & 63)
	q.lvlLen[lvl]++
	c := q.cnt[lvl][slot] + 1
	q.cnt[lvl][slot] = c
	if c > q.maxSlot {
		q.maxSlot = c
	}
}

// unlink removes n from its wheel slot or the overflow list in O(1).
func (q *timerQueue) unlink(n *timerNode) {
	if n.next != nil {
		n.next.prev = n.prev
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else if n.loc == locOverflow {
		q.overflow = n.next
	} else {
		q.slots[n.loc][n.slot] = n.next
	}
	if n.loc == locOverflow {
		q.overflowLen--
	} else {
		lvl, slot := int(n.loc), int(n.slot)
		q.lvlLen[lvl]--
		q.cnt[lvl][slot]--
		if q.cnt[lvl][slot] == 0 {
			q.occ[lvl][slot>>6] &^= 1 << (slot & 63)
		}
	}
	n.prev, n.next = nil, nil
	n.loc = locNone
}

// take detaches a wheel slot's whole list and returns its head and
// length: the slot's bookkeeping is cleared once, and the nodes keep
// their links until the caller walks them.
func (q *timerQueue) take(lvl, slot int) (*timerNode, int32) {
	head := q.slots[lvl][slot]
	if head == nil {
		return nil, 0
	}
	c := q.cnt[lvl][slot]
	q.slots[lvl][slot] = nil
	q.cnt[lvl][slot] = 0
	q.occ[lvl][slot>>6] &^= 1 << (slot & 63)
	q.lvlLen[lvl] -= int(c)
	return head, c
}

// next returns the lowest occupied slot >= from at level lvl, or -1.
func (q *timerQueue) next(lvl, from int) int {
	if from >= wheelSlots {
		return -1
	}
	w := from >> 6
	word := q.occ[lvl][w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= wheelWords {
			return -1
		}
		word = q.occ[lvl][w]
	}
}

// drainNear moves every node in level-0 slot s — all due at tick cur —
// into the near heap.
func (q *timerQueue) drainNear(slot int) {
	n, _ := q.take(0, slot)
	for n != nil {
		next := n.next
		n.prev, n.next = nil, nil
		q.push(n)
		n = next
	}
}

// cascade re-disperses every node in the given slot (level >= 1) by the
// insert rule against the freshly advanced cur. Each node lands at a
// strictly shallower level (or the near heap), so total cascade work
// per node is bounded by the level it was first filed at.
func (q *timerQueue) cascade(lvl, slot int) {
	n, c := q.take(lvl, slot)
	q.cascades += int64(c)
	for n != nil {
		next := n.next
		n.prev, n.next = nil, nil
		q.insert(n)
		n = next
	}
}

// enter advances cur to the start of window w at the given level and
// re-disperses everything that has just come due, cascading from the
// top level down: each level's slot at the new position holds exactly
// the nodes whose window has now arrived (an entry at level L can cross
// window boundaries of every level above it, so all levels must be
// checked — a slot already dispersed on a previous entry is empty and
// costs one head check). The level-0 slot holding tick == cur drains
// straight to near.
//
// The window START is the only correct landing point: entering at the
// window's last tick instead would re-insert slot-end nodes at delta
// 256 — right back into the slot being cascaded, forever.
func (q *timerQueue) enter(lvl int, w uint64) {
	oldRev := q.cur >> (wheelBits * wheelLevels)
	q.cur = w << (wheelBits * lvl)
	if rev := q.cur >> (wheelBits * wheelLevels); rev != oldRev && q.overflowLen > 0 {
		q.readmitOverflow(rev)
	}
	for k := wheelLevels - 1; k >= 1; k-- {
		q.cascade(k, int((q.cur>>(wheelBits*k))&wheelMask))
	}
	q.drainNear(int(q.cur & wheelMask))
}

// readmitOverflow moves overflow nodes whose deadline now falls inside
// the wheel horizon back into the wheel. Called whenever cur crosses a
// top-level revolution boundary, so an overflow node is re-dispersed no
// later than the start of its own revolution — before it can come due.
func (q *timerQueue) readmitOverflow(rev uint64) {
	for n := q.overflow; n != nil; {
		next := n.next
		if tickOf(n.at)>>(wheelBits*wheelLevels) <= rev {
			q.unlink(n)
			q.insert(n)
		}
		n = next
	}
}

// advanceOne moves cur forward to the next pending wheel or overflow
// work, draining at least one due batch toward the near heap. It
// reports false when the wheel and overflow are completely empty.
// Empty regions are skipped in O(1) per level via the occupancy
// bitmaps — cur jumps, it never walks tick by tick.
func (q *timerQueue) advanceOne() bool {
	if q.lvlLen[0] > 0 {
		if s := q.next(0, int(q.cur&wheelMask)+1); s >= 0 {
			// Next event is inside the current 256-tick window.
			q.cur = q.cur&^uint64(wheelMask) | uint64(s)
			q.drainNear(s)
			return true
		}
		// The remaining level-0 nodes wrapped into the next window.
		q.enter(1, q.cur>>wheelBits+1)
		return true
	}
	for lvl := 1; lvl < wheelLevels; lvl++ {
		if q.lvlLen[lvl] == 0 {
			continue
		}
		pos := q.cur >> (wheelBits * lvl)
		if s := q.next(lvl, int(pos&wheelMask)+1); s >= 0 {
			q.enter(lvl, pos&^uint64(wheelMask)|uint64(s))
		} else if lvl < wheelLevels-1 {
			// This level's remaining slots wrapped past its window
			// boundary; step into the parent level's next window.
			q.enter(lvl+1, q.cur>>(wheelBits*(lvl+1))+1)
		} else {
			// Top level wrapped: jump straight to its next occupied
			// slot in the following revolution.
			s := q.next(lvl, 0)
			q.enter(lvl, (pos>>wheelBits+1)<<wheelBits|uint64(s))
		}
		return true
	}
	if q.overflowLen > 0 {
		q.rebase()
		return true
	}
	return false
}

// rebase runs when the wheels are empty but overflow nodes remain: jump
// cur to the earliest overflow deadline and re-disperse the whole list.
// Overflow nodes are at least 2^32 ticks out, so per-node rebase work
// is vanishingly rare.
func (q *timerQueue) rebase() {
	min := uint64(math.MaxUint64)
	for n := q.overflow; n != nil; n = n.next {
		if t := tickOf(n.at); t < min {
			min = t
		}
	}
	head := q.overflow
	q.overflow = nil
	q.overflowLen = 0
	q.cur = min
	for n := head; n != nil; {
		next := n.next
		n.prev, n.next = nil, nil
		q.insert(n)
		n = next
	}
}

// peek returns the earliest timer without removing it, advancing the
// wheel as needed, or nil when nothing is pending.
func (q *timerQueue) peek() *timerNode {
	for len(q.near) == 0 {
		if !q.advanceOne() {
			return nil
		}
	}
	return q.near[0]
}

// pop removes the node a preceding peek returned: the near heap's root.
func (q *timerQueue) pop() *timerNode {
	n := q.near[0]
	q.removeAt(0)
	n.loc = locNone
	return n
}

// cancel removes a pending node and ends its tenure: an O(1) unlink from
// a wheel slot or the overflow list, or an O(log k) removal from the
// near heap, whose k is one tick's worth of timers. A node between pop
// and its callback is already recycled, so its handle cannot reach here.
func (q *timerQueue) cancel(n *timerNode) {
	if n.loc == locNear {
		q.removeAt(int(n.index))
	} else {
		q.unlink(n)
	}
	q.recycle(n)
}

// pending reports every timer still in the queue: near, wheel, and
// overflow nodes.
func (q *timerQueue) pending() int {
	n := len(q.near) + q.overflowLen
	for _, l := range q.lvlLen {
		n += l
	}
	return n
}

// before is the near heap's order: exact (at, seq), and seq is unique,
// so no two nodes tie and the pop order is independent of heap layout.
func before(a, b *timerNode) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds n to the near heap.
func (q *timerQueue) push(n *timerNode) {
	n.loc = locNear
	q.near = append(q.near, n)
	q.up(n, len(q.near)-1)
}

// removeAt takes the node at heap position i out of the near heap, as
// container/heap's Remove does: the last node moves into the hole and
// sifts down, or up if it cannot go down.
func (q *timerQueue) removeAt(i int) {
	h := q.near
	k := len(h) - 1
	h[i].index = -1
	last := h[k]
	h[k] = nil
	q.near = h[:k]
	if i != k && !q.down(last, i) {
		q.up(last, i)
	}
}

// up settles n, bound for heap position j, at or above j: later parents
// move down into the hole until n's parent is before n.
func (q *timerQueue) up(n *timerNode, j int) {
	h := q.near
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !before(n, p) {
			break
		}
		h[j] = p
		p.index = int32(j)
		j = i
	}
	h[j] = n
	n.index = int32(j)
}

// down settles n, bound for heap position i, at or below i: earlier
// children move up into the hole until neither child is before n. It
// reports whether n ended below i.
func (q *timerQueue) down(n *timerNode, i int) bool {
	h := q.near
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], n) {
			break
		}
		h[i] = h[c]
		h[i].index = int32(i)
		i = c
	}
	h[i] = n
	n.index = int32(i)
	return i > i0
}
