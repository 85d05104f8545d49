package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median %v, want 3", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if m := Median(nil); m != 0 {
		t.Errorf("empty median %v, want 0", m)
	}
}

func TestMidMean(t *testing.T) {
	// Eight values: the two lowest and the two highest are left out.
	if m := MidMean([]float64{100, 3, 4, 1, 2, 5, 6, 0}); !near(m, 3.5) {
		t.Errorf("mid-mean %v, want (2+3+4+5)/4 = 3.5", m)
	}
	// Two groups: it moves with their shares.
	if a, b := MidMean([]float64{3, 3, 3, 5, 5}), MidMean([]float64{3, 3, 5, 5, 5}); !(a < b) {
		t.Errorf("mid-means %v and %v of 3:2 and 2:3 mixes, want the first below the second", a, b)
	}
	if m := MidMean([]float64{7}); m != 7 {
		t.Errorf("mid-mean of one value %v, want 7", m)
	}
	if m := MidMean(nil); m != 0 {
		t.Errorf("empty mid-mean %v, want 0", m)
	}
}

// The reference values are what Python's statistics.quantiles(v, n=4)
// prints.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{10, 30, 20})
	if !near(q1, 10) || !near(q2, 20) || !near(q3, 30) {
		t.Errorf("quartiles of 10,20,30 = %v %v %v, want 10 20 30", q1, q2, q3)
	}
	q1, _, q3 = Quartiles([]float64{7, 9})
	if !near(q1, 6.5) || !near(q3, 9.5) {
		t.Errorf("quartiles of 7,9 = %v %v, want 6.5 9.5", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if s := Spread([]float64{4}); s != 0 {
		t.Errorf("spread of one value %v, want 0", s)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50}
	if q := Quantile(s, 0.5); q != 30 {
		t.Errorf("p50 %v, want 30", q)
	}
	if q := Quantile(s, 0.99); !near(q, 49.6) {
		t.Errorf("p99 %v, want 49.6", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile %v, want 0", q)
	}
}
