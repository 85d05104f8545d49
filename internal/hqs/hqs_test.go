package hqs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

func TestShapes(t *testing.T) {
	if got := Grouped(5, 3).Universe(); got != 15 {
		t.Fatalf("Grouped(5,3) universe = %d", got)
	}
	if got := Uniform(3, 3).Universe(); got != 27 {
		t.Fatalf("Uniform(3,3) universe = %d", got)
	}
}

// TestPaperTables23HQS reproduces the HQS columns of Tables 2 and 3.
func TestPaperTables23HQS(t *testing.T) {
	tests := []struct {
		sys  *System
		p    float64
		want float64
	}{
		{Grouped(5, 3), 0.1, 0.000210},
		{Grouped(5, 3), 0.2, 0.009567},
		{Grouped(5, 3), 0.3, 0.070946},
		{Grouped(5, 3), 0.5, 0.500000},
		{Uniform(3, 3), 0.1, 0.000016},
		{Uniform(3, 3), 0.2, 0.002681},
		{Uniform(3, 3), 0.3, 0.039626},
		{Uniform(3, 3), 0.5, 0.500000},
	}
	for _, tt := range tests {
		got := tt.sys.FailureProbability(tt.p)
		if math.Abs(got-tt.want) > 1e-6 {
			t.Errorf("%s p=%.1f: F = %.6f, paper %.6f", tt.sys.Name(), tt.p, got, tt.want)
		}
	}
}

// TestTable4Sizes reproduces the HQS quorum sizes of Table 4.
func TestTable4Sizes(t *testing.T) {
	s15 := Grouped(5, 3)
	if s15.MinQuorumSize() != 6 || s15.MaxQuorumSize() != 6 {
		t.Errorf("HQS(15) sizes (%d,%d), want (6,6)", s15.MinQuorumSize(), s15.MaxQuorumSize())
	}
	s27 := Uniform(3, 3)
	if s27.MinQuorumSize() != 8 || s27.MaxQuorumSize() != 8 {
		t.Errorf("HQS(27) sizes (%d,%d), want (8,8)", s27.MinQuorumSize(), s27.MaxQuorumSize())
	}
}

func TestDPMatchesEnumeration(t *testing.T) {
	for _, sys := range []*System{Grouped(3, 3), Uniform(2, 3), Grouped(5, 3)} {
		counts := analysis.TransversalCounts(sys)
		for _, p := range []float64{0.1, 0.3, 0.5} {
			want := analysis.Failure(counts, p)
			got := sys.FailureProbability(p)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s p=%.1f: DP %.12f, enumeration %.12f", sys.Name(), p, got, want)
			}
		}
	}
}

func TestIntersectionProperty(t *testing.T) {
	for _, sys := range []*System{Grouped(3, 3), Uniform(2, 3)} {
		if err := quorum.CheckPairwiseIntersection(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
	// A mixed-shape tree.
	mixed, err := New(&Shape{Children: []*Shape{
		UniformShape(1, 3), UniformShape(1, 5), {},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := quorum.CheckPairwiseIntersection(mixed); err != nil {
		t.Errorf("mixed: %v", err)
	}
	if err := quorum.CheckAvailabilityConsistency(mixed); err != nil {
		t.Errorf("mixed: %v", err)
	}
}

func TestAvailabilityConsistency(t *testing.T) {
	for _, sys := range []*System{Grouped(3, 3), Uniform(2, 3)} {
		if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

func TestPickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sys := range []*System{Grouped(3, 3), Uniform(2, 3), Grouped(5, 3)} {
		if err := quorum.CheckPickConsistency(sys, rng, 300); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

// TestGatePicks runs quorum.CheckPick on the majority tree's gate, which
// Pick draws from, on uniform, grouped and uneven trees.
func TestGatePicks(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	uneven, err := New(&Shape{Children: []*Shape{UniformShape(1, 3), UniformShape(1, 5), {}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*System{Grouped(3, 3), Uniform(2, 3), uneven} {
		if err := quorum.CheckPick(sys.Gate(), sys.n, rng, 200); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

func TestQuorumSizeScaling(t *testing.T) {
	// Ternary HQS quorums are 2^levels = n^(log3 2) ≈ n^0.63.
	for levels := 1; levels <= 5; levels++ {
		sys := Uniform(levels, 3)
		want := 1 << levels
		if sys.MinQuorumSize() != want || sys.MaxQuorumSize() != want {
			t.Errorf("levels=%d: sizes (%d,%d), want %d", levels, sys.MinQuorumSize(), sys.MaxQuorumSize(), want)
		}
	}
}

func TestNewRejectsNil(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("expected error for nil shape")
	}
}

func TestFailureDecreasesWithLevels(t *testing.T) {
	// Availability improves as levels are added (p < 0.5).
	prev := 1.0
	for levels := 1; levels <= 5; levels++ {
		f := Uniform(levels, 3).FailureProbability(0.1)
		if f >= prev {
			t.Errorf("levels=%d: F %.9f did not decrease from %.9f", levels, f, prev)
		}
		prev = f
	}
}

// TestQuickRandomTreesAreCoteries: any majority tree is a valid quorum
// system whose DP matches enumeration.
func TestQuickRandomTreesAreCoteries(t *testing.T) {
	var build func(rng *rand.Rand, depth, budget int) *Shape
	build = func(rng *rand.Rand, depth, budget int) *Shape {
		if depth == 0 || budget <= 1 || rng.Intn(3) == 0 {
			return &Shape{}
		}
		k := 2 + rng.Intn(3)
		s := &Shape{}
		for i := 0; i < k; i++ {
			s.Children = append(s.Children, build(rng, depth-1, budget/k))
		}
		return s
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := build(rng, 3, 12)
		sys, err := New(shape)
		if err != nil {
			return false
		}
		if sys.Universe() > 14 {
			return true
		}
		if quorum.CheckPairwiseIntersection(sys) != nil {
			return false
		}
		if quorum.CheckAvailabilityConsistency(sys) != nil {
			return false
		}
		counts := analysis.TransversalCounts(sys)
		for _, p := range []float64{0.2, 0.5} {
			if math.Abs(sys.FailureProbability(p)-analysis.Failure(counts, p)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstUse: the gate is built on first use, and concurrent
// first users (the enumerator's workers, pickers, the availability
// queries) must share one build. Meaningful under -race.
func TestConcurrentFirstUse(t *testing.T) {
	sys := Uniform(2, 3)
	live := bitset.Universe(sys.Universe())
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0:
				if !sys.Available(live) {
					t.Error("fully live system unavailable")
				}
			case 1:
				if sys.Gate() == nil {
					t.Error("no gate")
				}
			case 2:
				if _, err := sys.Pick(rand.New(rand.NewSource(int64(w))), live); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}
