package transport

import (
	"errors"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// fdSleeper sleeps on a timerfd parked in the netpoller: the blocking
// Read puts the goroutine to sleep on the descriptor like on an idle
// socket, and the kernel's hrtimer makes it readable on time, whatever
// the scheduler's own timer granularity (see timerSleeper). It is armed
// through the raw descriptor kept beside the *os.File — (*os.File).Fd
// would switch the descriptor to blocking mode and every Read would then
// pin an OS thread.
type fdSleeper struct {
	f   *os.File
	buf [8]byte // the expiration count Read returns; never looked at

	mu     sync.Mutex // orders arming the raw descriptor against close
	fd     uintptr
	closed bool
}

// itimerspec is timerfd_settime's argument (struct itimerspec).
type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Until reads

// newSleeper returns the sleeper for one delayed link's writer.
func newSleeper(quit <-chan struct{}) sleeper {
	// TFD_NONBLOCK and TFD_CLOEXEC are defined as the open(2) flags.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerSleeper(quit)
	}
	return &fdSleeper{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// sleep arms a one-shot relative timer and reads its expiry; d must be
// positive (a zero it_value would disarm the timer).
func (s *fdSleeper) sleep(d time.Duration) bool {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	s.mu.Unlock()
	if errno == 0 {
		_, err := s.f.Read(s.buf[:])
		if err == nil {
			return true
		}
		if errors.Is(err, os.ErrClosed) {
			return false
		}
	}
	// A timer that cannot be armed or read must still not let the
	// message out early.
	time.Sleep(d)
	return true
}

func (s *fdSleeper) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.f.Close() // wakes a parked Read with os.ErrClosed
}
