package transport

import "time"

// sleeper is the clock a delayed link's writer holds messages on
// (WithLinkLatency). Each such writer owns one for its whole life; the
// platform's newSleeper picks the implementation.
type sleeper interface {
	// sleep blocks for at least d, or until close. It reports false once
	// the sleeper is closed: the hold is abandoned, the writer is about
	// to exit.
	sleep(d time.Duration) bool
	// close releases the sleeper and ends a sleep in progress. Called
	// once, from a goroutine other than the sleeping one.
	close()
}

// timerSleeper sleeps on the runtime timer heap. With an idle P the Go
// scheduler parks in epoll_wait, whose timeout has millisecond
// granularity, so a sub-millisecond sleep wakes ~1 ms late (DESIGN §14) —
// which is why Linux holds on a timerfd instead and this one is only the
// other platforms' sleeper, and Linux's if timerfd_create fails.
type timerSleeper struct {
	quit <-chan struct{} // the node's quit channel: shutdown ends the sleep
}

func newTimerSleeper(quit <-chan struct{}) sleeper { return timerSleeper{quit: quit} }

func (s timerSleeper) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.quit:
		return false
	}
}

func (s timerSleeper) close() {}
