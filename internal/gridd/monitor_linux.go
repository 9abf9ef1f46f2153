//go:build linux

package gridd

import (
	"syscall"
	"time"
)

// lead is how long before a deadline the runtime timer wakes the
// dispatcher. On Linux Go's epoll netpoller sleeps in whole
// milliseconds (waitms in runtime/netpoll_epoll.go), so an idle
// process's runtime timer fires up to a millisecond late, and a timer
// due in under a millisecond waits a whole one. The lead is that one
// quantum plus margin; the dispatcher naps out the rest in nanosleep,
// which the kernel ends to within its timer slack.
const lead = 1500 * time.Microsecond

// nap blocks the calling thread in nanosleep for about d. An EINTR
// ends it early; the dispatcher reads the clock again and naps on.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
