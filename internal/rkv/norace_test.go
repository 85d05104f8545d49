//go:build !race

package rkv

const raceEnabled = false
