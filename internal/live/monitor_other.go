//go:build !linux

package live

import "time"

// lead is zero off Linux: kqueue and the Windows poller sleep to the
// nanosecond, so the runtime timer wakes the dispatcher at the deadline
// itself and nap is never reached.
const lead = 0

func nap(d time.Duration) { time.Sleep(d) }
