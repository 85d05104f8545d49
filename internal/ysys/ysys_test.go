package ysys

import (
	"math"
	"math/rand"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

func TestGeometry(t *testing.T) {
	s := New(5)
	if s.Universe() != 15 {
		t.Fatalf("n = %d, want 15", s.Universe())
	}
	if New(7).Universe() != 28 {
		t.Fatal("k=7 should have 28 processes")
	}
	// Interior process 4 (row 2, col 1) has six neighbours.
	if got := len(s.neighbors[4]); got != 6 {
		t.Fatalf("interior degree = %d, want 6", got)
	}
	// Apex has two.
	if got := len(s.neighbors[0]); got != 2 {
		t.Fatalf("apex degree = %d, want 2", got)
	}
}

// TestPaperTables23Y reproduces the Y columns of Tables 2 and 3 (the paper
// quotes them from Kuo–Huang; our board reproduces the 15-process values
// exactly).
func TestPaperTables23Y(t *testing.T) {
	tests := []struct {
		k    int
		p    float64
		want float64
	}{
		{5, 0.1, 0.000745},
		{5, 0.2, 0.017603},
		{5, 0.3, 0.093599},
		{5, 0.5, 0.500000},
	}
	for _, tt := range tests {
		counts := analysis.TransversalCounts(New(tt.k))
		got := analysis.Failure(counts, tt.p)
		if math.Abs(got-tt.want) > 1e-6 {
			t.Errorf("Y(%d) p=%.1f: F = %.6f, paper %.6f", tt.k, tt.p, got, tt.want)
		}
	}
}

// TestSelfDualAtHalf: the game-of-Y theorem makes the system self-dual, so
// F(1/2) = 1/2 exactly.
func TestSelfDualAtHalf(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		counts := analysis.TransversalCounts(New(k))
		if got := analysis.Failure(counts, 0.5); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("k=%d: F(0.5) = %.12f", k, got)
		}
	}
}

func TestTable4Sizes(t *testing.T) {
	s := New(5)
	if s.MinQuorumSize() != 5 || s.MaxQuorumSize() != 6 {
		t.Errorf("Y(15) sizes (%d,%d), want (5,6)", s.MinQuorumSize(), s.MaxQuorumSize())
	}
}

func TestIntersectionProperty(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		if err := quorum.CheckPairwiseIntersection(New(k)); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestAvailabilityConsistency(t *testing.T) {
	// Available must agree with "some minimal quorum is contained in live".
	for _, k := range []int{3, 4, 5} {
		if err := quorum.CheckAvailabilityConsistency(New(k)); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestPickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{4, 5} {
		if err := quorum.CheckPickConsistency(New(k), rng, 300); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestPickReturnsMinimalYSet(t *testing.T) {
	s := New(6)
	rng := rand.New(rand.NewSource(8))
	live := bitset.Universe(s.Universe())
	for i := 0; i < 100; i++ {
		q, err := s.Pick(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		if !s.isYSet(q) {
			t.Fatalf("picked %v is not a Y-set", q)
		}
		q.ForEach(func(v int) {
			q.Remove(v)
			if s.Available(q) {
				t.Fatalf("picked quorum is not minimal (can drop %d from %v∪{%d})", v, q, v)
			}
			q.Add(v)
		})
	}
}

// TestSidesAreQuorums: each full side of the board is a minimal quorum of
// size k.
func TestSidesAreQuorums(t *testing.T) {
	s := New(5)
	for _, side := range [][]int{s.left, s.right, s.bottom} {
		set := bitset.New(s.Universe())
		for _, v := range side {
			set.Add(v)
		}
		if !s.isYSet(set) {
			t.Fatalf("side %v is not a Y-set", set)
		}
	}
}

// TestComplementDuality: for any live set, exactly one of live and its
// complement contains a Y-set (the game-of-Y theorem) — checked
// exhaustively on small boards.
func TestComplementDuality(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5} {
		s := New(k)
		n := s.Universe()
		for mask := uint64(0); mask < uint64(1)<<uint(n); mask++ {
			live := bitset.FromWord(n, mask)
			a := s.Available(live)
			b := s.Available(live.Complement())
			if a == b {
				t.Fatalf("k=%d: Y-duality violated on %v (both %t)", k, live, a)
			}
		}
	}
}

// TestAvailableAllocatesNothing: Monte Carlo estimates call Available
// once per sample, so it floods on pooled scratch and allocates nothing.
func TestAvailableAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s := New(5) // Y(15)
	rng := rand.New(rand.NewSource(1))
	lives := make([]bitset.Set, 64)
	for i := range lives {
		lives[i] = bitset.FromWord(15, rng.Uint64()&(1<<15-1))
	}
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		s.Available(lives[i%len(lives)])
		i++
	}); got != 0 {
		t.Fatalf("Available allocates %v times per call, want 0", got)
	}
}
