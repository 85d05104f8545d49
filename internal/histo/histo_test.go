package histo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value maps to a bucket whose range contains it, and the bucket
	// upper bound is within 1/64 relative error.
	values := []int64{0, 1, 63, 64, 127, 128, 129, 1000, 4096, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	for _, v := range values {
		i := bucketIndex(v)
		upper := bucketUpper(i)
		if upper < v {
			t.Fatalf("value %d: bucket %d upper %d below value", v, i, upper)
		}
		if v >= 128 {
			if rel := float64(upper-v) / float64(v); rel > 1.0/subCount {
				t.Fatalf("value %d: upper %d relative error %f", v, upper, rel)
			}
		} else if upper != v {
			t.Fatalf("small value %d not exact (upper %d)", v, upper)
		}
	}
	// Bucket indices are monotone in the value.
	prev := -1
	for v := int64(0); v < 1<<20; v += 997 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = i
	}
}

func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New()
	var exact []int64
	for i := 0; i < 50000; i++ {
		// log-uniform latencies from 1µs to 1s
		v := int64(math.Exp(rng.Float64()*math.Log(1e9/1e3)) * 1e3)
		h.Record(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)-1))]
		got := h.Quantile(q)
		rel := math.Abs(float64(got)-float64(want)) / float64(want)
		if rel > 0.05 { // generous: bucket error + rank rounding
			t.Fatalf("q=%v: got %d want %d (rel %f)", q, got, want, rel)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("Quantile(1)=%d, Max=%d", h.Quantile(1), h.Max())
	}
	if h.Quantile(0) > exact[len(exact)/100] {
		t.Fatalf("Quantile(0)=%d too high", h.Quantile(0))
	}
}

func TestCountMeanMinMax(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for _, v := range []int64{10, 20, 30} {
		h.Record(v)
	}
	h.RecordDuration(40 * time.Nanosecond)
	if h.Count() != 4 || h.Mean() != 25 || h.Max() != 40 || h.Min() != 10 {
		t.Fatalf("count=%d mean=%v max=%d min=%d", h.Count(), h.Mean(), h.Max(), h.Min())
	}
	h.Record(-5) // clamps to zero
	if h.Min() != 0 {
		t.Fatalf("negative record: min=%d", h.Min())
	}
}

func TestMerge(t *testing.T) {
	a, b, both := New(), New(), New()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 30)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(New())
	if a.Count() != both.Count() || a.Max() != both.Max() || a.Min() != both.Min() {
		t.Fatalf("merge mismatch: count %d/%d max %d/%d", a.Count(), both.Count(), a.Max(), both.Max())
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("q=%v: merged %d, direct %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merge into empty preserves min.
	c := New()
	c.Merge(both)
	if c.Min() != both.Min() {
		t.Fatalf("merge into empty: min %d want %d", c.Min(), both.Min())
	}
}

// TestMergeEdgeCases pins the degenerate merges a per-window
// aggregation hits: empty↔empty, empty↔one-sample, one-sample↔one-sample.
// The min sentinel (-1 when empty) must never leak into a merged result.
func TestMergeEdgeCases(t *testing.T) {
	// Empty into empty: still empty, still all-zero accessors.
	e1, e2 := New(), New()
	e1.Merge(e2)
	if e1.Count() != 0 || e1.Min() != 0 || e1.Max() != 0 || e1.Quantile(0.5) != 0 {
		t.Fatal("empty+empty not empty")
	}
	// One sample into empty: the sample's stats survive exactly.
	one := New()
	one.Record(777)
	e1.Merge(one)
	if e1.Count() != 1 || e1.Min() != 777 || e1.Max() != 777 || e1.Mean() != 777 {
		t.Fatalf("empty+one: count=%d min=%d max=%d mean=%v",
			e1.Count(), e1.Min(), e1.Max(), e1.Mean())
	}
	if q := e1.Quantile(0.5); q != 777 {
		t.Fatalf("empty+one: q50=%d", q)
	}
	// Empty into one sample: identity.
	one.Merge(New())
	if one.Count() != 1 || one.Min() != 777 || one.Max() != 777 {
		t.Fatal("one+empty changed the histogram")
	}
	// One sample into one sample, including a zero observation — Min must
	// become 0, not stay at the other histogram's value.
	zero := New()
	zero.Record(0)
	one.Merge(zero)
	if one.Count() != 2 || one.Min() != 0 || one.Max() != 777 {
		t.Fatalf("one+zero: count=%d min=%d max=%d", one.Count(), one.Min(), one.Max())
	}
}

// TestResetReuse: one histogram Reset and refilled per window must be
// indistinguishable from a fresh histogram.
func TestResetReuse(t *testing.T) {
	reused, fresh := New(), New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		reused.Record(rng.Int63n(1 << 20))
	}
	reused.Reset()
	rng2 := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		v := rng2.Int63n(1 << 20)
		reused.Record(v)
		fresh.Record(v)
	}
	if reused.Count() != fresh.Count() || reused.Min() != fresh.Min() ||
		reused.Max() != fresh.Max() || reused.Mean() != fresh.Mean() {
		t.Fatal("reset-reused histogram diverges from fresh")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if reused.Quantile(q) != fresh.Quantile(q) {
			t.Fatalf("q=%v: reused %d fresh %d", q, reused.Quantile(q), fresh.Quantile(q))
		}
	}
}

func TestReset(t *testing.T) {
	h := New()
	h.Record(123)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.9) != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(5)
	if h.Min() != 5 {
		t.Fatalf("post-reset min %d", h.Min())
	}
}

func TestSummary(t *testing.T) {
	h := New()
	for i := 0; i < 1000; i++ {
		h.RecordDuration(time.Millisecond)
	}
	s := h.Summary()
	for _, want := range []string{"n=1000", "p50=", "p99=", "max=1ms"} {
		if !containsStr(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*1003 + 17)
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Record(rng.Int63n(1 << 32))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}

// TestMergeManyClients folds a gateway-scale fan of per-client
// histograms — skewed so clients see very different latency ranges —
// into one, and checks it is indistinguishable from a histogram that
// saw every sample directly. This is the per-client merge path at 1000+
// clients: tail quantiles must survive the fold exactly.
func TestMergeManyClients(t *testing.T) {
	const clients = 1000
	rng := rand.New(rand.NewSource(12))
	merged, direct := New(), New()
	for c := 0; c < clients; c++ {
		h := New()
		// Each client's base latency differs by two orders of magnitude;
		// a few clients contribute nothing (connected, never completed).
		if c%97 == 0 {
			merged.Merge(h)
			continue
		}
		base := int64(1000) << uint(c%8)
		for i := 0; i < 20; i++ {
			v := base + rng.Int63n(base)
			h.Record(v)
			direct.Record(v)
		}
		merged.Merge(h)
	}
	if merged.Count() != direct.Count() || merged.Min() != direct.Min() || merged.Max() != direct.Max() {
		t.Fatalf("fold mismatch: count %d/%d min %d/%d max %d/%d",
			merged.Count(), direct.Count(), merged.Min(), direct.Min(), merged.Max(), direct.Max())
	}
	if merged.Mean() != direct.Mean() {
		t.Fatalf("fold mean %v, direct %v", merged.Mean(), direct.Mean())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if merged.Quantile(q) != direct.Quantile(q) {
			t.Fatalf("q=%v: folded %d, direct %d", q, merged.Quantile(q), direct.Quantile(q))
		}
	}
}
