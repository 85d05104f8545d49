//go:build !race

package ysys

const raceEnabled = false
