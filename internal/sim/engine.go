// Package sim implements a deterministic discrete-event simulation engine
// whose processes are coroutines.
//
// The engine advances a virtual clock and runs exactly one process at a
// time, so simulation code needs no locking and every run with the same
// seed is bit-for-bit reproducible. Processes are ordinary Go functions
// that block by calling engine primitives (Sleep, Acquire, Park); each
// runs on a shell, an iter.Pull coroutine that Run switches into
// directly and that switches straight back when the process parks or
// returns, so only the engine or one process ever executes and engine
// state needs no mutex.
//
// A shell outlives its process. When a process returns, its shell goes
// back to one small pool that every engine draws from, so a fresh
// engine's first process starts on a goroutine that already exists and
// whose stack has already grown. A process still parked when Run
// reaches quiescence never returns: it keeps its shell, and the shell's
// goroutine, for the life of the program.
//
// The package exists so that the retry/backoff logic in internal/core can
// be exercised over hours of virtual time in milliseconds of real time,
// with up to a million concurrent clients, exactly as the paper's
// experiments require. A real-time adapter in internal/core runs the same
// logic against the wall clock.
//
// The scheduler's hot structures are tuned for sweep workloads
// (internal/expt runs thousands of cells, each millions of steps), and
// in particular for the schedule-then-cancel churn of backoff machines:
// timers live in a hierarchical timer wheel (see wheel.go) with O(1)
// insert and O(1) cancel, in front of a typed near heap that orders only
// the current tick's timers; a slot that comes due is drained or
// cascaded whole, not node by node. Timer nodes are taken from a free
// list or the unused tail of the newest block, with generation-checked
// handles, and carry one callback form: Schedule's closure rides as the
// argument of a shared function. Processes are recycled through an arena
// of their own, and the run queue is a power-of-two ring with mask
// indexing. None of it allocates per operation in steady state. The
// first block of each arena is small (8 records, then 256), so an engine
// asked for one process and one timer — every ftsh script, most unit
// tests — costs some 16 KB, not 100.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
)

// Epoch is the virtual time origin: all virtual timestamps are offsets
// from this instant. It aliases core.Epoch so every backend shares the
// same origin and traces are directly comparable.
var Epoch = core.Epoch

// Engine is a single-threaded discrete-event simulator. Create one with
// New, add processes with Spawn, then call Run. Engine methods must only
// be called either before Run starts, from inside a process, or from a
// timer callback; they are not safe for use from arbitrary goroutines.
type Engine struct {
	now time.Duration // virtual time since Epoch
	seq int64         // tie-breaker for timers at the same instant

	q      timerQueue // pending timers (wheel + near heap)
	runq   []*Proc    // power-of-two ring of runnable processes
	rqHead int        // index of the front of the ring
	rqLen  int        // runnable processes in the ring
	live   int        // processes that have not exited

	// Process arena: Proc records are minted in blocks (dense, indexable
	// by id) and recycled through a free list when they exit, so churny
	// workloads reuse records and their cached wakeup closures.
	procBlocks [][]Proc
	procFree   []*Proc
	nextProcID int32

	current *Proc // the process Run has switched into; nil in the engine

	seed   int64
	rng    *rand.Rand // made by Rand on first draw; nil until then
	events int64
	// MaxEvents bounds the total number of scheduling steps as a guard
	// against accidental infinite simulations. Zero means the default.
	MaxEvents int64

	root    *Ctx
	ctxFree []*Ctx // contexts whose deriving process canceled them
}

const defaultMaxEvents = 200_000_000

// New returns an engine whose random source is seeded with seed.
// Identical seeds yield identical simulations. The source itself is
// made on the first draw: seeding one costs more than the rest of a
// fresh engine, and most ftsh scripts never draw.
func New(seed int64) *Engine {
	e := &Engine{seed: seed}
	e.root = &Ctx{eng: e}
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Time { return Epoch.Add(e.now) }

// Elapsed reports virtual time elapsed since the start of the run.
func (e *Engine) Elapsed() time.Duration { return e.now }

// Events reports how many scheduling steps (process resumptions and timer
// firings) the engine has executed.
func (e *Engine) Events() int64 { return e.events }

// RunQueueLen reports the number of currently runnable processes
// (observability; must be called under the engine token).
func (e *Engine) RunQueueLen() int { return e.rqLen }

// TimerHeapLen reports the number of pending timers — wheel, overflow,
// and near-heap nodes (observability; engine token).
func (e *Engine) TimerHeapLen() int { return e.q.pending() }

// WheelCascades reports how many timer nodes level cascades have
// re-dispersed toward shallower wheel levels (observability; engine
// token). A zero value on a long run means every timer fit the innermost
// level — the wheel was effectively a flat calendar.
func (e *Engine) WheelCascades() int64 { return e.q.cascades }

// MaxSlotOccupancy reports the high-water mark of timer nodes sharing a
// single wheel slot (observability; engine token). It bounds the
// worst-case burst a single slot drain hands the near heap.
func (e *Engine) MaxSlotOccupancy() int { return int(e.q.maxSlot) }

// TimerOverflowLen reports the number of timers currently parked beyond
// the wheel horizon, ~52 virtual days (observability; engine token).
func (e *Engine) TimerOverflowLen() int { return e.q.overflowLen }

// Rand returns the engine's deterministic random source. It must only be
// used under the engine token (from processes or timer callbacks). It is
// the only reader of e.rng: the source is seeded here, on first use.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// Context returns the root simulation context. It is canceled only when
// explicitly requested, e.g. to shut down an experiment window.
func (e *Engine) Context() *Ctx { return e.root }

// pushRun appends a process to the back of the run-queue ring, growing
// the ring when full. The ring is power-of-two sized so the ring walk is
// a mask, not a division.
func (e *Engine) pushRun(p *Proc) {
	if e.rqLen == len(e.runq) {
		grown := make([]*Proc, max(16, 2*len(e.runq)))
		mask := len(e.runq) - 1
		for i := 0; i < e.rqLen; i++ {
			grown[i] = e.runq[(e.rqHead+i)&mask]
		}
		e.runq = grown
		e.rqHead = 0
	}
	e.runq[(e.rqHead+e.rqLen)&(len(e.runq)-1)] = p
	e.rqLen++
}

// popRun removes and returns the oldest runnable process.
func (e *Engine) popRun() *Proc {
	p := e.runq[e.rqHead]
	e.runq[e.rqHead] = nil
	e.rqHead = (e.rqHead + 1) & (len(e.runq) - 1)
	e.rqLen--
	return p
}

// procBlock is the arena granularity for Proc records, sized for cells
// of many thousands of clients. The first block is only procBlock0
// records: most engines spawn a handful of processes, and a 256-record
// block was half of what such an engine allocated in its whole life.
const (
	procBlock  = 256
	procBlock0 = 8
)

// allocProc takes a recycled Proc from the free list, minting a fresh
// block when it runs dry. Blocks are dense and indexable, and ids are
// handed out in ascending order whatever the block sizes: see procByID.
func (e *Engine) allocProc() *Proc {
	if k := len(e.procFree); k > 0 {
		p := e.procFree[k-1]
		e.procFree[k-1] = nil
		e.procFree = e.procFree[:k-1]
		return p
	}
	size := procBlock
	if len(e.procBlocks) == 0 {
		size = procBlock0
	}
	blk := make([]Proc, size)
	for i := range blk {
		blk[i].eng = e
		blk[i].id = e.nextProcID
		e.nextProcID++
	}
	e.procBlocks = append(e.procBlocks, blk)
	for i := size - 1; i >= 1; i-- {
		e.procFree = append(e.procFree, &blk[i])
	}
	return &blk[0]
}

// procByID returns the arena record with the given id, live or free
// (diagnostics and tests; engine token): the first procBlock0 ids are
// block 0, and every procBlock after them one further block, forever.
func (e *Engine) procByID(id int32) *Proc {
	if id < procBlock0 {
		return &e.procBlocks[0][id]
	}
	id -= procBlock0
	return &e.procBlocks[1+id/procBlock][id%procBlock]
}

// recycleProc returns an exited process's record to the free list and
// its shell to the shell pool. The cached wakeup closures survive
// recycling; the shell serves whichever process, of whichever engine,
// is spawned next.
func (e *Engine) recycleProc(p *Proc) {
	putShell(p.sh)
	p.sh = nil
	p.name = ""
	p.parked = false
	p.wakeErr = nil
	p.done = false
	p.tracer = nil
	p.sleepFired = false
	p.sleepTimer = Timer{}
	e.procFree = append(e.procFree, p)
}

// Spawn creates a new process executing fn and schedules it to run. It
// may be called before Run or from inside a running process or timer.
//
// The process runs on a shell from the shell pool, a coroutine that
// only Run resumes. A panic in fn therefore surfaces from Run, on the
// goroutine that called it, as a *ProcPanic carrying the process's name
// and stack; runtime.Goexit in fn (a t.Fatal, say) unwinds Run's
// goroutine likewise. Either way the shell dies with the process. A
// process still parked when Run reaches quiescence keeps its shell, and
// so its goroutine, stack and deferred calls, for the life of the
// program: dropping the engine does not free them.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := e.allocProc()
	p.name = name
	e.live++
	p.sh = takeShell()
	p.sh.p, p.sh.fn = p, fn
	e.pushRun(p)
	return p
}

// shellPoolMax bounds the idle shells kept for the next spawn, across
// all engines. It is more than an ftsh script keeps alive at once (the
// script and its forall branches), and far below a figure cell's
// population, whose exits mostly stop their shells rather than keep a
// thousand goroutines parked for nothing. An idle
// shell's stack needs no management: at each collection the runtime
// halves a stack that uses less than a quarter of itself.
const shellPoolMax = 64

// A shell is a coroutine that runs process bodies one after another:
// Spawn hands it a process and a body, Run's first switch into it
// starts the body, and when the body returns the shell yields and
// waits, idle in the pool, for the next one. The pool is package-wide
// because a fresh engine's first process is the one that wants a warm
// shell: every ftsh script runs on an engine of its own.
type shell struct {
	next  func() (struct{}, bool) // engine side: switch into the shell
	stop  func()                  // end an idle shell's loop
	yield func(struct{}) bool     // shell side: switch back to Run
	p     *Proc                   // the process to run next
	fn    func(p *Proc)           // its body
}

// shellPool is a LIFO, so the shell handed out is the one that ran
// most recently: the one whose stack is likeliest still to be grown.
// Shells move between goroutines only through it, under its mutex,
// which is what orders one engine's last use of a shell before
// another's first.
var shellPool struct {
	sync.Mutex
	idle []*shell
}

// takeShell returns an idle shell from the pool, or a new one.
func takeShell() *shell {
	shellPool.Lock()
	if k := len(shellPool.idle); k > 0 {
		sh := shellPool.idle[k-1]
		shellPool.idle[k-1] = nil
		shellPool.idle = shellPool.idle[:k-1]
		shellPool.Unlock()
		return sh
	}
	shellPool.Unlock()
	sh := &shell{}
	sh.next, sh.stop = iter.Pull(sh.loop)
	return sh
}

// putShell returns a shell whose body has returned to the pool, or
// stops it if the pool is full. Only an idle shell may be stopped:
// stopping a shell parked inside a body would resume the body as if it
// had been woken.
func putShell(sh *shell) {
	shellPool.Lock()
	if len(shellPool.idle) < shellPoolMax {
		shellPool.idle = append(shellPool.idle, sh)
		shellPool.Unlock()
		return
	}
	shellPool.Unlock()
	sh.stop()
}

// loop is the shell's coroutine: run a body, switch back, repeat until
// stopped.
func (sh *shell) loop(yield func(struct{}) bool) {
	sh.yield = yield
	for {
		sh.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run runs the body Spawn handed over, dropping both handles first so
// an idle shell pins neither. A panic leaves the shell's loop, and so
// ends the coroutine, as a *ProcPanic that iter.Pull re-raises from
// Run's switch; the process's frames are gone by then, so its stack is
// taken here.
func (sh *shell) run() {
	p, fn := sh.p, sh.fn
	sh.p, sh.fn = nil, nil
	defer func() {
		if v := recover(); v != nil {
			panic(&ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()})
		}
	}()
	fn(p)
	p.exit()
}

// ProcPanic is the value Run panics with when a process panicked. The
// coroutine switch re-raises a process's panic on Run's goroutine after
// the process's own frames are gone, so they are captured here first.
type ProcPanic struct {
	Proc  string // name of the process that panicked
	Value any    // what it panicked with
	Stack []byte // debug.Stack() taken in the process, panicking frames included
}

// Error implements the error interface.
func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// String prints the same text as Error.
func (pp *ProcPanic) String() string { return pp.Error() }

// Schedule arranges for fn to run at virtual time now+d under the engine
// token. It returns a handle that can cancel the callback before it
// fires. The handle is a value: copies are equivalent, and the zero
// Timer is valid and inert.
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	return e.ScheduleArg(d, runFunc, fn)
}

// runFunc is the shared callback of every Schedule: the closure rides
// in the node's arg, which costs no allocation (a func value is a
// single pointer), so a node has one callback form and Run one call.
func runFunc(arg any) { arg.(func())() }

// ScheduleArg is Schedule for mass-client workloads: fn is a shared,
// usually package-level function and arg the per-client state, so a
// population of millions of timer-driven clients schedules without a
// closure allocation per event. Semantics are otherwise identical to
// Schedule.
func (e *Engine) ScheduleArg(d time.Duration, fn func(arg any), arg any) Timer {
	n := e.q.alloc()
	n.fn = fn
	n.arg = arg
	return e.arm(n, d)
}

// arm stamps n with its deadline and schedule-order tie-breaker, files
// it in the timer queue, and returns the handle for its tenure.
func (e *Engine) arm(n *timerNode, d time.Duration) Timer {
	if d < 0 {
		d = 0
	}
	n.at = e.now + d
	n.seq = e.seq
	e.seq++
	e.q.insert(n)
	return Timer{eng: e, n: n, gen: n.gen, at: n.at}
}

// Run executes the simulation until no process is runnable and no timer is
// pending (quiescence), or until MaxEvents steps have been taken, in which
// case it returns an error. Processes parked forever (for example waiting
// on a resource that is never released) do not keep Run alive; cancel
// their contexts to unwind them.
//
// Runnables drain before timers, in admission (FIFO) order; timers fire
// in (at, seq) order. Both orders are functions of the seed alone, so
// the event sequence — and therefore every byte of output — is
// reproducible.
func (e *Engine) Run() error {
	maxEv := e.MaxEvents
	if maxEv <= 0 {
		maxEv = defaultMaxEvents
	}
	for {
		e.events++
		if e.events > maxEv {
			return fmt.Errorf("sim: exceeded %d events at t=%v (runnable=%d timers=%d): likely livelock", maxEv, e.now, e.rqLen, e.TimerHeapLen())
		}
		if e.rqLen > 0 {
			p := e.popRun()
			e.current = p
			p.sh.next()
			e.current = nil
			if p.done {
				e.recycleProc(p)
			}
			continue
		}
		if n := e.q.peek(); n != nil {
			e.q.pop()
			if n.at > e.now {
				e.now = n.at
			}
			fn, arg := n.fn, n.arg
			e.q.recycle(n)
			fn(arg)
			continue
		}
		return nil
	}
}

// Quiesced reports whether the engine has neither runnable processes nor
// pending timers.
func (e *Engine) Quiesced() bool { return e.rqLen == 0 && e.TimerHeapLen() == 0 }

// Live reports the number of processes that have been spawned and have
// not yet returned.
func (e *Engine) Live() int { return e.live }

// Timer is a cancelable handle to a callback scheduled with
// Engine.Schedule. It is a value: copying it is fine, and the zero
// Timer is inert (Cancel does nothing, Scheduled reports false).
//
// The node behind a handle is recycled when the callback fires or the
// timer is canceled, so handles carry the node's generation: operations
// on a handle whose tenure has ended are no-ops, never actions on the
// node's next occupant.
type Timer struct {
	eng *Engine
	n   *timerNode
	gen uint32
	at  time.Duration
}

// Cancel prevents the timer from firing. Canceling an already-fired,
// already-canceled, or zero Timer is a no-op: each ended that tenure
// and bumped the node's generation. Wheel and overflow residents are
// unlinked in O(1); near-heap residents are removed in O(log k) of the
// near heap's few entries.
func (t Timer) Cancel() {
	if n := t.n; n != nil && n.gen == t.gen {
		t.eng.q.cancel(n)
	}
}

// When reports the virtual time at which the timer fires (fired, for
// handles whose callback already ran).
func (t Timer) When() time.Duration { return t.at }

// Scheduled reports whether the handle was ever armed: false only for
// the zero Timer. It does not track firing; use it to distinguish "no
// timer" from "a timer exists" in structs that arm one conditionally.
func (t Timer) Scheduled() bool { return t.n != nil }

// timerNode is the engine-owned record behind a Timer handle. It lives
// either in the near heap (index = heap position) or on a wheel slot /
// overflow doubly-linked list (prev/next); loc says which. The field
// order packs it into 72 bytes.
type timerNode struct {
	at  time.Duration
	seq int64
	fn  func(arg any) // runFunc for Schedule, the caller's for ScheduleArg
	arg any

	prev, next *timerNode // wheel slot / overflow list links
	index      int32      // position in the near heap; -1 when not in it
	gen        uint32     // tenure counter; bumped on recycle
	loc        int8       // locNear, locNone, locOverflow, or wheel level
	slot       uint8      // slot index when loc is a wheel level
}
