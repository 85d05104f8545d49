//go:build race

package rkv

// raceEnabled is set under the race detector, whose instrumentation
// allocates: allocation gates skip.
const raceEnabled = true
