//go:build !linux

package transport

// newSleeper returns the sleeper for one delayed link's writer.
func newSleeper(quit <-chan struct{}) sleeper { return newTimerSleeper(quit) }
