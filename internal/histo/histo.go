// Package histo provides an HDR-style log-bucketed histogram for latency
// measurement: constant-time recording, bounded relative error, cheap
// merging.
//
// Values (nanoseconds, but the histogram is unit-agnostic) are assigned to
// log-linear buckets: 128 exact buckets for values below 128, then 64
// linear sub-buckets per power of two. Quantiles therefore carry at most
// ~1.6% relative error (1/64) while the whole histogram is a flat ~30KB
// array — no allocation per Record, no sorting, no sampling bias.
//
// A Histogram is deliberately not goroutine-safe: keep one per worker
// (or guard it, as optrace's tracer does) and merge after the run.
package histo

import (
	"fmt"
	"math/bits"
	"strings"
	"time"
)

const (
	subBits  = 6
	subCount = 1 << subBits // 64 linear sub-buckets per power of two

	// maxExp is the largest bucket exponent: values up to ~2^62 land in a
	// bucket; larger ones clamp into the last.
	maxExp     = 63 - subBits
	numBuckets = 2*subCount + maxExp*subCount
)

// Histogram counts values in log-linear buckets.
type Histogram struct {
	counts [numBuckets]uint64
	total  uint64
	sum    float64
	max    int64
	min    int64
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{min: -1}
}

// bucketIndex maps a value to its bucket. Values 0..127 map exactly;
// beyond that, each power of two is split into 64 linear sub-buckets.
func bucketIndex(v int64) int {
	u := uint64(v)
	l := bits.Len64(u)
	if l <= subBits+1 { // v < 128: exact
		return int(u)
	}
	exp := l - (subBits + 1)
	if exp > maxExp {
		exp = maxExp
	}
	sub := u >> uint(exp) // in [subCount, 2*subCount)
	return exp*subCount + int(sub)
}

// bucketUpper returns the largest value that maps to bucket i — the
// conservative (upper-bound) representative used for quantiles.
func bucketUpper(i int) int64 {
	if i < 2*subCount {
		return int64(i)
	}
	exp := (i - subCount) / subCount
	sub := uint64(i - exp*subCount)
	return int64((sub+1)<<uint(exp) - 1)
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
	if h.min < 0 || v < h.min {
		h.min = v
	}
}

// RecordDuration adds one observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) with at
// most one sub-bucket (~1.6%) of relative error. The exact recorded
// maximum caps the answer, so Quantile(1) == Max.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank: the smallest bucket whose cumulative count covers q*total.
	rank := uint64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	if h.min < 0 || (o.min >= 0 && o.min < h.min) {
		h.min = o.min
	}
}

// Reset clears the histogram for reuse.
func (h *Histogram) Reset() {
	*h = Histogram{min: -1}
}

// Summary renders count, mean and the standard latency quantiles assuming
// nanosecond observations, e.g.
//
//	n=12000 mean=1.2ms p50=1.1ms p95=2.3ms p99=4.0ms p999=9.1ms max=12ms
func (h *Histogram) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v", h.total, time.Duration(h.Mean()).Round(time.Microsecond))
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}} {
		fmt.Fprintf(&b, " %s=%v", q.name, time.Duration(h.Quantile(q.q)).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " max=%v", time.Duration(h.Max()).Round(time.Microsecond))
	return b.String()
}
