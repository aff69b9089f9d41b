package loadgen

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// linkTimer is one delay link's wait: a timerfd, read through the Go
// netpoller. With every P idle the Go runtime waits for its next timer
// in epoll_wait, whose timeout is whole milliseconds (golang/go#44343):
// time.Sleep(500µs) returns after about 1 ms, doubling a same-region
// hop. A timerfd is timed by the kernel's high-resolution timers and
// its expiry is an fd event, which wakes epoll_wait at once. Unlike a
// sleep in nanosleep(2) it holds no P while it waits, so the node
// worker the drainer readied just before waiting runs at once instead
// of queueing behind the sleeping thread until sysmon retakes its P.
type linkTimer struct {
	f   *os.File // nil if the timerfd could not be made: time.Sleep
	fd  uintptr  // f's descriptor; f.Fd() would switch it to blocking
	buf [8]byte
}

// timerfd_create(2) flags: TFD_NONBLOCK (so os.NewFile registers the fd
// with the netpoller) and TFD_CLOEXEC.
const tfdFlags = syscall.O_NONBLOCK | syscall.O_CLOEXEC

func newLinkTimer() *linkTimer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdFlags, 0)
	if errno != 0 {
		return &linkTimer{}
	}
	return &linkTimer{f: os.NewFile(fd, "timerfd"), fd: fd}
}

// wait returns once due has passed, never before: a wake-up short of due
// (a signal, a clock step) re-arms the timer from what is left.
func (t *linkTimer) wait(due time.Time) {
	for {
		left := time.Until(due)
		if left <= 0 {
			return
		}
		if t.f == nil {
			time.Sleep(left)
			continue
		}
		// A relative one-shot expiry (it_interval zero); left > 0, so
		// it_value is never the all-zero value that disarms.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(left))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			time.Sleep(left)
			continue
		}
		if _, err := t.f.Read(t.buf[:]); err != nil {
			time.Sleep(time.Until(due))
		}
	}
}

// close releases the timerfd.
func (t *linkTimer) close() {
	if t.f != nil {
		t.f.Close()
	}
}
