package analysis_test

// Cross-check property tests: the word fast path of Paths and Y (the two
// constructions whose availability is graph connectivity, not a gate) must
// agree with Available(bitset.FromWord(...)) bit for bit, and the
// work-stealing enumerator must be invariant in the worker count. These
// tests live in an external test package so they can import the system
// packages (which themselves import analysis for the interface
// assertions). Every other construction counts through its quorum.Gate's
// decision diagram, checked in diagram_systems_test.go.

import (
	"math/rand"
	"runtime"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
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

// wordSystems returns one instance of every construction implementing the
// word fast path, covering both padded shift-flood layouts and the per-bit
// fallbacks (Y k=9 and Paths ℓ=5 exceed their padded layouts but stay
// within 64 processes).
func wordSystems() []wordSystem {
	return []wordSystem{
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
	for _, sys := range wordSystems() {
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
// large enough to span multiple work blocks, on the bitset and the word
// path.
func TestEnumeratorWorkerInvariance(t *testing.T) {
	systems := []namedSystem{
		mustLog(18), // 2¹⁸ subsets: 4 work blocks, bitset path
		ysys.New(6), // n = 21: 32 work blocks, word path
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
