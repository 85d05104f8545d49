package analysis_test

// Cross-check property tests: every construction's AvailableWord must agree
// with Available(bitset.FromWord(...)) bit for bit, and the work-stealing
// enumerator must be invariant in the worker count. These tests live in an
// external test package so they can import the system packages (which
// themselves import analysis for the interface assertions). The h-grid
// family has no word path; its circuits are checked in
// circuit_systems_test.go.

import (
	"math/rand"
	"runtime"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/cwlog"
	"hquorum/internal/hqs"
	"hquorum/internal/htriang"
	"hquorum/internal/kcoterie"
	"hquorum/internal/majority"
	"hquorum/internal/paths"
	"hquorum/internal/ysys"
)

type namedSystem interface {
	analysis.Availability
	Name() string
}

type wordSystem interface {
	namedSystem
	analysis.WordAvailability
}

func mustWall(widths []int) *cwlog.System {
	s, err := cwlog.NewWall(widths)
	if err != nil {
		panic(err)
	}
	return s
}

func mustLog(n int) *cwlog.System {
	s, err := cwlog.Log(n)
	if err != nil {
		panic(err)
	}
	return s
}

func mustWeighted(weights []int, threshold int) *majority.System {
	s, err := majority.NewWeighted(weights, threshold)
	if err != nil {
		panic(err)
	}
	return s
}

func mustKMajority(n, k int) *kcoterie.KMajority {
	s, err := kcoterie.NewKMajority(n, k)
	if err != nil {
		panic(err)
	}
	return s
}

// wordSystems returns one instance of every construction implementing the
// word fast path, covering both padded shift-flood layouts and the per-bit
// fallbacks (Y k=9 and Paths ℓ=5 exceed their padded layouts but stay
// within 64 processes).
func wordSystems(t *testing.T) []wordSystem {
	t.Helper()
	part, err := kcoterie.NewPartitioned(majority.New(7), ysys.New(4), mustLog(14))
	if err != nil {
		t.Fatal(err)
	}
	return []wordSystem{
		majority.New(21),
		majority.NewTieBreak(28),
		mustWeighted([]int{3, 1, 1, 1, 2, 2, 1, 1, 1, 1}, 8),
		mustKMajority(15, 2),
		part,
		mustLog(14),
		mustLog(29),
		mustWall([]int{2, 1, 3, 4, 2}),
		hqs.Grouped(5, 3),
		hqs.Uniform(3, 3),
		ysys.New(5),
		ysys.New(7),
		ysys.New(8), // largest padded Y board
		ysys.New(9), // per-bit fallback
		paths.New(2),
		paths.New(3),
		paths.New(4), // largest padded grid
		paths.New(5), // per-bit fallback (n = 61)
	}
}

// TestAvailableWordAgrees cross-checks the word fast path against the
// bitset predicate on ~10k random masks per configuration, plus the empty
// and full masks.
func TestAvailableWordAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for _, sys := range wordSystems(t) {
		n := sys.Universe()
		if n > 64 {
			t.Fatalf("%s: universe %d exceeds the word contract", sys.Name(), n)
		}
		mask := ^uint64(0)
		if n < 64 {
			mask = uint64(1)<<uint(n) - 1
		}
		check := func(w uint64) {
			t.Helper()
			got := sys.AvailableWord(w)
			want := sys.Available(bitset.FromWord(n, w))
			if got != want {
				t.Fatalf("%s: AvailableWord(%#x) = %v, Available = %v", sys.Name(), w, got, want)
			}
		}
		check(0)
		check(mask)
		for i := 0; i < 10000; i++ {
			// Mix dense and sparse masks: uniform bits alone almost never
			// exercise the boundary between available and not for n ≫ 20.
			w := rng.Uint64() & mask
			switch i % 4 {
			case 1:
				w &= rng.Uint64()
			case 2:
				w |= rng.Uint64() & mask
			case 3:
				w &= rng.Uint64() | rng.Uint64()
			}
			check(w)
		}
	}
}

// TestEnumeratorWorkerInvariance asserts the work-stealing enumerator
// returns identical counts for 1, 3 and GOMAXPROCS workers on systems
// large enough to span multiple work blocks, on the word and the circuit
// path.
func TestEnumeratorWorkerInvariance(t *testing.T) {
	systems := []namedSystem{
		mustLog(18),    // 2¹⁸ subsets: 4 work blocks
		ysys.New(6),    // n = 21: 32 work blocks
		htriang.New(6), // n = 21, circuit path
	}
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, sys := range systems {
		want := analysis.TransversalCountsParallel(sys, workerCounts[0])
		for _, w := range workerCounts[1:] {
			got := analysis.TransversalCountsParallel(sys, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: workers=%d a_%d = %d, want %d", sys.Name(), w, i, got[i], want[i])
				}
			}
		}
	}
}
