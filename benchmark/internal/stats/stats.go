// Package stats holds the benchmark's arithmetic: medians over windows,
// exact sample quantiles, and the quartile spread the acceptance rule
// uses.
package stats

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// CPUTime returns the process's user plus system CPU time so far.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// PeakRSSMiB returns the process's peak resident set size.
func PeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Median returns the median of vs (the mean of the two middle values for
// an even count), or 0 for an empty slice. vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// MidMean returns the mean of the middle half of vs: the lowest and the
// highest quarter (rounded down) are left out. One stalled measurement
// does not move it, and where the values fall into two groups it moves
// smoothly with their shares, where the median jumps from one group to
// the other. It returns 0 for an empty slice; vs is not modified.
func MidMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Quantile returns the q-quantile of the sorted samples by linear
// interpolation between closest ranks, so it moves with every sample
// instead of jumping between bucket bounds.
func Quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the default "exclusive" method),
// which is how the acceptance rule measures spread. It needs at least
// two values.
func Quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise a bound has to exceed.
func Spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, _, q3 := Quartiles(vs)
	med := Median(vs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
