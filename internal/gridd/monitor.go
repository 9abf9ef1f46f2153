package gridd

import (
	"repro/internal/live"
	"repro/internal/trace"
)

// monitor is the daemon's host: live's wall-clock monitor, its clock
// running at real time from construction. It is to the daemon what the
// engine token is to the simulator, and its timers (watchdogs, window
// ends, long-poll expiries) are those of a live engine: one heap in
// (deadline, arm order) and one dispatcher that is never early. It is
// also the parker of every HTTP request: a long poll that has to queue
// gives the lock up until its wait ends. Requests carry no trace.
type monitor struct{ *live.Monitor }

func (monitor) Tracer() *trace.Client { return nil }
