package loadgen

import (
	"syscall"
	"time"
)

// sleepUntil returns once due has passed, waiting in the kernel's
// nanosleep instead of on a Go timer. With every P idle the Go runtime
// waits for its next timer in epoll_wait, whose timeout is whole
// milliseconds (golang/go#44343): time.Sleep(500µs) returns after about
// 1 ms, doubling a same-region hop. nanosleep is timed by the kernel's
// high-resolution timers. The price is one OS thread blocked in the
// syscall per waiting goroutine. A sleep cut short by a signal (EINTR)
// is re-armed from what is left, so it never returns early.
func sleepUntil(due time.Time) {
	for {
		wait := time.Until(due)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}
