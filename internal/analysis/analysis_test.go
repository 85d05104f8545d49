package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hquorum/internal/bitset"
)

// threshold is a tiny m-of-n system used as a reference.
type threshold struct{ n, m int }

func (t threshold) Universe() int                  { return t.n }
func (t threshold) Available(live bitset.Set) bool { return live.Count() >= t.m }

func TestTransversalCountsThreshold(t *testing.T) {
	// For an m-of-n system, a failed set is a transversal iff it has more
	// than n-m members: a_i = C(n,i) for i > n-m, 0 otherwise.
	sys := threshold{n: 7, m: 4}
	counts := TransversalCounts(sys)
	for i := 0; i <= 7; i++ {
		want := uint64(0)
		if i > 3 {
			want = uint64(Binomial(7, i))
		}
		if counts[i] != want {
			t.Errorf("a_%d = %d, want %d", i, counts[i], want)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	sys := threshold{n: 11, m: 6}
	base := TransversalCountsParallel(sys, 1)
	for _, workers := range []int{2, 3, 7, 16} {
		got := TransversalCountsParallel(sys, workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: a_%d = %d, want %d", workers, i, got[i], base[i])
			}
		}
	}
}

func TestFailureMatchesBinomial(t *testing.T) {
	sys := threshold{n: 9, m: 5}
	counts := TransversalCounts(sys)
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		got := Failure(counts, p)
		want := MajorityFailure(9, 5, p)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%.1f: %v vs %v", p, got, want)
		}
	}
}

func TestFailureBoundaries(t *testing.T) {
	counts := TransversalCounts(threshold{n: 5, m: 3})
	if got := Failure(counts, 0); got != 0 {
		t.Errorf("F(0) = %v", got)
	}
	if got := Failure(counts, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("F(1) = %v", got)
	}
}

// TestQuickFailureMonotone: Fp is nondecreasing in p for any monotone
// system.
func TestQuickFailureMonotone(t *testing.T) {
	counts := TransversalCounts(threshold{n: 8, m: 5})
	f := func(a, b float64) bool {
		pa := math.Abs(a) - math.Floor(math.Abs(a)) // map into [0,1)
		pb := math.Abs(b) - math.Floor(math.Abs(b))
		if pa > pb {
			pa, pb = pb, pa
		}
		return Failure(counts, pa) <= Failure(counts, pb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMonteCarloConverges(t *testing.T) {
	sys := threshold{n: 10, m: 6}
	counts := TransversalCounts(sys)
	exact := Failure(counts, 0.3)
	res := MonteCarloFailure(sys, 0.3, 60000, rand.New(rand.NewSource(1)))
	if math.Abs(res.Estimate-exact) > 5*res.StdErr+1e-3 {
		t.Fatalf("estimate %v±%v vs exact %v", res.Estimate, res.StdErr, exact)
	}
	if res.Samples != 60000 {
		t.Fatalf("samples %d", res.Samples)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{5, 6, 0}, {5, -1, 0}, {29, 14, 77558760},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); math.Abs(got-c.want) > 1e-6*math.Max(1, c.want) {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestEnumerationGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized universe")
		}
	}()
	TransversalCounts(threshold{n: 31, m: 16})
}

func TestFailureAt(t *testing.T) {
	sys := threshold{n: 6, m: 4}
	ps := []float64{0.1, 0.2}
	got := FailureAt(sys, ps)
	counts := TransversalCounts(sys)
	for i, p := range ps {
		if math.Abs(got[i]-Failure(counts, p)) > 1e-15 {
			t.Fatalf("FailureAt mismatch at p=%v", p)
		}
	}
}

func TestCrossover(t *testing.T) {
	// 1-of-2 (read-one) vs 2-of-3 (majority): the singleton-style system is
	// better at every p < 1 — no crossover — while majority(3) vs a single
	// node cross at p where 3p²−2p³ = p, i.e. p = 1/2.
	maj3 := TransversalCounts(threshold{n: 3, m: 2})
	single := TransversalCounts(threshold{n: 1, m: 1})
	p, ok := Crossover(maj3, single, 0.05, 0.95)
	if !ok {
		t.Fatal("expected a crossover")
	}
	if math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("crossover at %v, want 0.5", p)
	}
	// Same system: sign never flips away from zero... use two thresholds
	// with strict domination instead: 2-of-3 vs 3-of-3 never cross inside.
	allOf3 := TransversalCounts(threshold{n: 3, m: 3})
	if _, ok := Crossover(maj3, allOf3, 0.05, 0.95); ok {
		t.Fatal("dominated pair should not cross")
	}
}
