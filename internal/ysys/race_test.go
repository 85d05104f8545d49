//go:build race

package ysys

// raceEnabled is set under the race detector, which makes sync.Pool drop
// items at random: allocation gates skip.
const raceEnabled = true
