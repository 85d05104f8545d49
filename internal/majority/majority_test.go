package majority

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

func TestNewSizes(t *testing.T) {
	tests := []struct {
		n, min, max int
	}{
		{1, 1, 1},
		{3, 2, 2},
		{5, 3, 3},
		{15, 8, 8},
		{28, 15, 15},
	}
	for _, tt := range tests {
		s := New(tt.n)
		if s.MinQuorumSize() != tt.min || s.MaxQuorumSize() != tt.max {
			t.Errorf("New(%d): sizes (%d,%d), want (%d,%d)",
				tt.n, s.MinQuorumSize(), s.MaxQuorumSize(), tt.min, tt.max)
		}
	}
}

func TestTieBreakSizes(t *testing.T) {
	s := NewTieBreak(28)
	if s.MinQuorumSize() != 14 || s.MaxQuorumSize() != 15 {
		t.Fatalf("tie-break(28): sizes (%d,%d), want (14,15)", s.MinQuorumSize(), s.MaxQuorumSize())
	}
	// Exhaustively check small instance matches enumeration-based bounds.
	small := NewTieBreak(6)
	if small.MinQuorumSize() != 3 || small.MaxQuorumSize() != 4 {
		t.Fatalf("tie-break(6): sizes (%d,%d), want (3,4)", small.MinQuorumSize(), small.MaxQuorumSize())
	}
}

func TestIntersectionProperty(t *testing.T) {
	for _, sys := range []*System{New(5), New(7), NewTieBreak(6), NewTieBreak(8)} {
		if err := quorum.CheckPairwiseIntersection(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

func TestCoterieMinimality(t *testing.T) {
	for _, sys := range []*System{New(7), NewTieBreak(8)} {
		c, err := quorum.FromSystem(sys)
		if err != nil {
			t.Fatal(err)
		}
		if !c.IsCoterie() {
			t.Errorf("%s: enumerated quorums are not an antichain", sys.Name())
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

func TestAvailabilityConsistency(t *testing.T) {
	for _, sys := range []*System{New(7), NewTieBreak(6)} {
		if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

func TestPickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sys := range []*System{New(9), NewTieBreak(8)} {
		if err := quorum.CheckPickConsistency(sys, rng, 300); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

// TestGatePicks: Pick is Gate.Pick on the compiled formula, so the gate's
// picks must be exactly its listed quorums — which must be the enumerated
// minimal quorums, the reference the vote weights define.
func TestGatePicks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sys := range []*System{New(5), New(7), NewTieBreak(6), NewTieBreak(8)} {
		n := sys.Universe()
		g := sys.Gate()
		if err := quorum.CheckPick(g, n, rng, 500); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
		want := make(map[string]bool)
		sys.EnumerateQuorums(func(q bitset.Set) bool { want[q.String()] = true; return true })
		listed := g.Quorums(n)
		for _, q := range listed {
			if !want[q.String()] {
				t.Errorf("%s: gate lists %v, which is no minimal quorum", sys.Name(), q)
			}
		}
		if len(listed) != len(want) {
			t.Errorf("%s: gate lists %d quorums, enumeration %d", sys.Name(), len(listed), len(want))
		}
	}
}

// TestTieBreakPickSplitsEvenly: on a fully live tie-break system the gate
// takes each of its two ways to the threshold half the time, so node 0 is
// in half the picks (the old shuffle-and-prune put it in (n/2+1)/n).
func TestTieBreakPickSplitsEvenly(t *testing.T) {
	const draws = 20000
	sys := NewTieBreak(28)
	rng := rand.New(rand.NewSource(9))
	live := bitset.Universe(28)
	with := 0
	for i := 0; i < draws; i++ {
		q, err := sys.Pick(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		if q.Contains(0) {
			with++
			if q.Count() != 14 {
				t.Fatalf("quorum with node 0 has %d nodes, want 14", q.Count())
			}
		} else if q.Count() != 15 {
			t.Fatalf("quorum without node 0 has %d nodes, want 15", q.Count())
		}
	}
	if got := float64(with) / draws; math.Abs(got-0.5) > 0.015 {
		t.Fatalf("node 0 in %.4f of the picks, want 0.5", got)
	}
}

func TestPickMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(11)
	live := bitset.Universe(11)
	for i := 0; i < 50; i++ {
		q, err := s.Pick(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		if q.Count() != 6 {
			t.Fatalf("Pick returned %d nodes, want 6", q.Count())
		}
	}
}

// TestFailureMatchesClosedForm checks the enumeration engine against the
// binomial closed form for the majority system.
func TestFailureMatchesClosedForm(t *testing.T) {
	for _, n := range []int{5, 9, 13} {
		s := New(n)
		counts := analysis.TransversalCounts(s)
		for _, p := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7} {
			got := analysis.Failure(counts, p)
			want := analysis.MajorityFailure(n, n/2+1, p)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("n=%d p=%.2f: enumeration %.12f, closed form %.12f", n, p, got, want)
			}
		}
	}
}

// TestPaperTable2Table3Majority reproduces the Majority column of Tables 2
// and 3 of the paper.
func TestPaperTable2Table3Majority(t *testing.T) {
	tests := []struct {
		n    int
		p    float64
		want float64
	}{
		{15, 0.1, 0.000034},
		{15, 0.2, 0.004240},
		{15, 0.3, 0.050013},
		{15, 0.5, 0.500000},
		{28, 0.2, 0.000229},
		{28, 0.3, 0.014257},
		{28, 0.5, 0.500000},
	}
	for _, tt := range tests {
		var got float64
		if tt.n%2 == 0 {
			// Paper's even-universe majority is the tie-breaking variant:
			// fails when votes of survivors < n/2+1 with node 0 carrying 2.
			s := NewTieBreak(tt.n)
			// Closed form: split on survival of the heavy node.
			q := 1 - tt.p
			f := 0.0
			// heavy alive: need >= n/2-1 of remaining n-1; fails if <= n/2-2 survive
			for k := 0; k <= tt.n/2-2; k++ {
				f += q * analysis.Binomial(tt.n-1, k) * math.Pow(q, float64(k)) * math.Pow(tt.p, float64(tt.n-1-k))
			}
			// heavy failed: need >= n/2+1 of remaining n-1; fails if <= n/2 survive
			for k := 0; k <= tt.n/2; k++ {
				f += tt.p * analysis.Binomial(tt.n-1, k) * math.Pow(q, float64(k)) * math.Pow(tt.p, float64(tt.n-1-k))
			}
			_ = s
			got = f
		} else {
			got = analysis.MajorityFailure(tt.n, tt.n/2+1, tt.p)
		}
		if math.Abs(got-tt.want) > 5e-7 {
			t.Errorf("majority n=%d p=%.1f: got %.6f, paper %.6f", tt.n, tt.p, got, tt.want)
		}
	}
}

func TestSelfDualityAtHalf(t *testing.T) {
	// Odd-total-vote systems are self-dual: F(0.5) = 0.5 exactly.
	for _, sys := range []*System{New(7), New(15), NewTieBreak(8)} {
		counts := analysis.TransversalCounts(sys)
		if got := analysis.Failure(counts, 0.5); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("%s: F(0.5) = %.12f, want 0.5", sys.Name(), got)
		}
	}
}

// TestFailureProbabilityDP cross-checks the vote-count DP against
// enumeration.
func TestFailureProbabilityDP(t *testing.T) {
	for _, sys := range []*System{New(9), NewTieBreak(8), NewTieBreak(2)} {
		counts := analysis.TransversalCounts(sys)
		for _, p := range []float64{0.1, 0.3, 0.5, 0.8} {
			want := analysis.Failure(counts, p)
			got := sys.FailureProbability(p)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s p=%.1f: DP %.12f, enumeration %.12f", sys.Name(), p, got, want)
			}
		}
	}
}

// TestConcurrentFirstUse: the gate is built on first use, and concurrent
// first users (the enumerator's workers, pickers, the availability
// queries) must share one build. Meaningful under -race.
func TestConcurrentFirstUse(t *testing.T) {
	sys := NewTieBreak(12)
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
