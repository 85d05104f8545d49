package htriang

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

func TestGeometry(t *testing.T) {
	s := New(5)
	if s.Universe() != 15 {
		t.Fatalf("n = %d, want 15", s.Universe())
	}
	if s.MinQuorumSize() != 5 || s.MaxQuorumSize() != 5 {
		t.Fatalf("sizes (%d,%d), want (5,5)", s.MinQuorumSize(), s.MaxQuorumSize())
	}
	s7 := New(7)
	if s7.Universe() != 28 || s7.MinQuorumSize() != 7 || s7.MaxQuorumSize() != 7 {
		t.Fatalf("k=7: n=%d sizes (%d,%d)", s7.Universe(), s7.MinQuorumSize(), s7.MaxQuorumSize())
	}
}

// TestConstantQuorumSize verifies §5/§6's claim that all h-triang quorums
// have the same size (the row count), by full enumeration.
func TestConstantQuorumSize(t *testing.T) {
	for k := 1; k <= 6; k++ {
		s := New(k)
		s.EnumerateQuorums(func(q bitset.Set) bool {
			if q.Count() != k {
				t.Fatalf("k=%d: quorum %v has %d elements", k, q, q.Count())
			}
			return true
		})
	}
}

// TestTheorem51 checks that any two h-triang quorums intersect.
func TestTheorem51(t *testing.T) {
	for k := 1; k <= 6; k++ {
		if err := quorum.CheckPairwiseIntersection(New(k)); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestAvailabilityConsistency(t *testing.T) {
	for k := 1; k <= 6; k++ {
		if err := quorum.CheckAvailabilityConsistency(New(k)); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestPickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{3, 5, 6} {
		if err := quorum.CheckPickConsistency(New(k), rng, 300); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// TestDPMatchesEnumeration cross-checks the structural failure-probability
// DP against exact subset enumeration.
func TestDPMatchesEnumeration(t *testing.T) {
	for k := 1; k <= 6; k++ {
		s := New(k)
		counts := analysis.TransversalCounts(s)
		for _, p := range []float64{0.1, 0.3, 0.5} {
			want := analysis.Failure(counts, p)
			got := s.FailureProbability(p)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("k=%d p=%.1f: DP %.12f, enumeration %.12f", k, p, got, want)
			}
		}
	}
}

// TestPaperTables23HTriang reproduces the h-triang columns of Tables 2/3.
func TestPaperTables23HTriang(t *testing.T) {
	tests := []struct {
		k    int
		p    float64
		want float64
	}{
		{5, 0.1, 0.000677},
		{5, 0.2, 0.016577},
		{5, 0.3, 0.090712},
		{5, 0.5, 0.500000},
		{7, 0.1, 0.000055},
		{7, 0.2, 0.004851},
		{7, 0.3, 0.051670},
		{7, 0.5, 0.500000},
	}
	for _, tt := range tests {
		got := New(tt.k).FailureProbability(tt.p)
		if math.Abs(got-tt.want) > 5e-7 {
			t.Errorf("k=%d p=%.1f: F = %.6f, paper %.6f", tt.k, tt.p, got, tt.want)
		}
	}
}

// TestSelfDualAtHalf: the h-triang hits F(1/2) = 1/2 for the paper's
// configurations, like the best coteries.
func TestSelfDualAtHalf(t *testing.T) {
	for _, k := range []int{2, 3, 5, 7} {
		if got := New(k).FailureProbability(0.5); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("k=%d: F(0.5) = %.12f", k, got)
		}
	}
}

// TestBalancedStrategyLoad reproduces Table 4's h-triang loads: the
// balanced strategy induces uniform load 2/(k+1) — 33.3% at k=5 and 25% at
// k=7 — with constant quorum size k.
func TestBalancedStrategyLoad(t *testing.T) {
	for _, k := range []int{2, 3, 5, 7, 13, 14} {
		st, err := New(k).BalancedStrategy()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := 2.0 / float64(k+1)
		if math.Abs(st.Load()-want) > 1e-9 {
			t.Errorf("k=%d: load %.6f, want %.6f", k, st.Load(), want)
		}
		if math.Abs(st.AvgQuorumSize()-float64(k)) > 1e-9 {
			t.Errorf("k=%d: avg quorum size %.6f, want %d", k, st.AvgQuorumSize(), k)
		}
	}
}

// TestBalancedStrategySampling verifies the sampled quorums are real
// quorums and the empirical loads approach uniformity.
func TestBalancedStrategySampling(t *testing.T) {
	s := New(5)
	st, err := s.BalancedStrategy()
	if err != nil {
		t.Fatal(err)
	}
	all := quorum.AllQuorums(s)
	rng := rand.New(rand.NewSource(31))
	counts := make([]int, 15)
	const samples = 20000
	for i := 0; i < samples; i++ {
		q := st.Pick(rng)
		if q.Count() != 5 {
			t.Fatalf("sampled quorum %v has %d elements", q, q.Count())
		}
		ok := false
		for _, known := range all {
			if q.Equal(known) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("sampled set %v is not an enumerated quorum", q)
		}
		q.ForEach(func(id int) { counts[id]++ })
	}
	want := float64(samples) / 3
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("process %d accessed %d times, want ≈ %.0f", id, c, want)
		}
	}
}

// TestGrowthImprovesAvailability verifies the §5 growth rules: each one
// strictly improves failure probability at p = 0.2 and preserves the
// intersection property.
func TestGrowthImprovesAvailability(t *testing.T) {
	base := Canonical(4)
	grown := []*Spec{
		base.GrowT2(),
		base.GrowGridCols(),
	}
	if sq, err := base.GrowGridSquare(); err == nil {
		grown = append(grown, sq)
	}
	baseSys, err := FromSpec(base)
	if err != nil {
		t.Fatal(err)
	}
	fBase := baseSys.FailureProbability(0.2)
	for i, sp := range grown {
		sys, err := FromSpec(sp)
		if err != nil {
			t.Fatalf("grown[%d]: %v", i, err)
		}
		if sys.Universe() <= baseSys.Universe() {
			t.Fatalf("grown[%d] did not add processes (%d vs %d)", i, sys.Universe(), baseSys.Universe())
		}
		if err := quorum.CheckPairwiseIntersection(sys); err != nil {
			t.Fatalf("grown[%d]: %v", i, err)
		}
		if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
			t.Fatalf("grown[%d]: %v", i, err)
		}
		if f := sys.FailureProbability(0.2); f >= fBase {
			t.Errorf("grown[%d]: F %.9f not better than base %.9f", i, f, fBase)
		}
	}
}

func TestGrowGridSquareRejectsNonSquare(t *testing.T) {
	sp := Canonical(5) // grid is 3x2
	if _, err := sp.GrowGridSquare(); err == nil {
		t.Fatal("expected error for non-square grid")
	}
}

// TestSpecCanonicalEquivalence: FromSpec(Canonical(k)) must be
// probabilistically identical to New(k).
func TestSpecCanonicalEquivalence(t *testing.T) {
	for _, k := range []int{2, 4, 5, 7} {
		a := New(k)
		b, err := FromSpec(Canonical(k))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.1, 0.4} {
			fa, fb := a.FailureProbability(p), b.FailureProbability(p)
			if math.Abs(fa-fb) > 1e-12 {
				t.Errorf("k=%d p=%.1f: %.12f vs %.12f", k, p, fa, fb)
			}
		}
	}
}

// TestQuickRandomPairsIntersect property-tests Theorem 5.1 on larger
// triangles via randomized picks.
func TestQuickRandomPairsIntersect(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 2 + int(kRaw)%9 // 2..10
		s := New(k)
		rng := rand.New(rand.NewSource(seed))
		live := bitset.Universe(s.Universe())
		q1, err1 := s.Pick(rng, live)
		q2, err2 := s.Pick(rng, live)
		if err1 != nil || err2 != nil {
			return false
		}
		return q1.Intersects(q2) && q1.Count() == k && q2.Count() == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMonotoneAvailability: adding a process never breaks availability.
func TestMonotoneAvailability(t *testing.T) {
	s := New(5)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		live := bitset.New(15)
		for i := 0; i < 15; i++ {
			if rng.Intn(2) == 0 {
				live.Add(i)
			}
		}
		before := s.Available(live)
		grown := live.Clone()
		grown.Add(rng.Intn(15))
		if before && !s.Available(grown) {
			t.Fatalf("adding a process broke availability: %v", live)
		}
	}
}

func TestRenderFigure2(t *testing.T) {
	s := New(5)
	out := s.Render(nil)
	want := "" +
		"    1\n" +
		"   1 1\n" +
		"  G G 2\n" +
		" G G 2 2\n" +
		"G G 2 2 2\n"
	if out != want {
		t.Fatalf("Render:\n%s\nwant:\n%s", out, want)
	}
	q := bitset.FromIndices(15, 10, 11, 12, 13, 14)
	marked := s.Render(&q)
	wantQ := "" +
		"    .\n" +
		"   . .\n" +
		"  . . .\n" +
		" . . . .\n" +
		"# # # # #\n"
	if marked != wantQ {
		t.Fatalf("Render(q):\n%s\nwant:\n%s", marked, wantQ)
	}
}

// TestGatePricesExactly cross-checks the three-method gate against brute
// force over the enumerated quorums.
func TestGatePricesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 3, 4, 5, 6} {
		sys := New(k)
		if err := quorum.CheckCheapest(sys.Gate(), quorum.AllQuorums(sys), sys.Universe(), rng, 300); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}
