package sim

import (
	"context"
	"time"

	"repro/internal/core"
)

// RT adapts an Engine to the backend-neutral core.Backend interface.
// The Engine's own methods keep their concrete types (*Ctx, *rand.Rand,
// sim.Timer, func(*Proc)) for the engine's direct users and the
// zero-allocation hot path; RT shadows exactly the methods whose
// signatures differ, boxing only at setup-rate call sites (Spawn,
// Schedule), and adds NewAlarm, the re-armable timer a caller keeps
// instead of boxing a handle per arming. Obtain one with Engine.RT.
type RT struct{ *Engine }

var _ core.Backend = RT{}

// RT returns the engine as a core.Backend.
func (e *Engine) RT() RT { return RT{e} }

// Rand implements core.Backend, drawing from the engine's deterministic
// source.
func (r RT) Rand() float64 { return r.Engine.Rand().Float64() }

// Context implements core.Backend with the root simulation context.
func (r RT) Context() context.Context { return r.Engine.root }

// Spawn implements core.Backend; the process runs under the engine
// token exactly as with Engine.Spawn.
func (r RT) Spawn(name string, fn func(p core.Proc)) {
	r.Engine.Spawn(name, func(p *Proc) { fn(p) })
}

// Schedule implements core.Backend, boxing the engine's value-type
// timer handle.
func (r RT) Schedule(d time.Duration, fn func()) core.Timer {
	return r.Engine.Schedule(d, fn)
}

// NewAlarm implements core.Backend. The alarm keeps the engine's
// value-type handle and re-arms through ScheduleArg with itself as the
// argument, so Set and Stop allocate nothing.
func (r RT) NewAlarm(fn func()) core.Alarm { return &alarm{eng: r.Engine, fn: fn} }

// alarm is the simulator's core.Alarm.
type alarm struct {
	eng *Engine
	fn  func()
	t   Timer
}

func (a *alarm) Set(d time.Duration) {
	a.t.Cancel()
	a.t = a.eng.ScheduleArg(d, fireAlarm, a)
}

func (a *alarm) Stop() {
	a.t.Cancel()
	a.t = Timer{}
}

// fireAlarm is the shared callback of every alarm.
func fireAlarm(arg any) { arg.(*alarm).fn() }

// Blocking runs fn. A process keeps the engine token while it runs, so
// there is nothing to let go around fn; with it RT is a host for code
// written for engines that must release theirs around a round trip
// (griddclient.Host).
func (r RT) Blocking(fn func()) { fn() }
