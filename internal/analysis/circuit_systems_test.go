package analysis_test

// Cross-check property tests for the bit-sliced circuit path: every
// availability circuit (lowered from the system's quorum.Gate) must agree
// with the bitset Available lane for lane, and the enumerator's
// 64-masks-at-once path must produce the same transversal counts as the
// scalar bitset path. The h-grid family and the baselines (majority, HQS,
// CWlog, the k-majority) all take this path.

import (
	"math/rand"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/hgrid"
	"hquorum/internal/hqs"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/majority"
)

type circuitSystem interface {
	namedSystem
	analysis.CircuitAvailability
}

func circuitSystems(t *testing.T) []circuitSystem {
	t.Helper()
	grown, err := htriang.FromSpec(htriang.Canonical(6).GrowT2())
	if err != nil {
		t.Fatal(err)
	}
	return []circuitSystem{
		hgrid.NewRW(hgrid.Flat(3, 4)),
		hgrid.NewRW(hgrid.Uniform(2, 2, 2)),
		hgrid.NewRW(hgrid.Auto(5, 5)),
		hgrid.NewRW(hgrid.Auto(6, 4)),
		htgrid.Auto(3, 3),
		htgrid.Auto(5, 5),
		htgrid.Auto(6, 4),
		htgrid.Auto(8, 8),
		htgrid.NewOriented(hgrid.Auto(4, 4), htgrid.OrientBelowLine),
		htgrid.NewOriented(hgrid.Auto(5, 3), htgrid.OrientBelowLine),
		htriang.New(5),
		htriang.New(7),
		htriang.New(10),
		grown,
		majority.New(21),
		majority.NewTieBreak(28),
		mustKMajority(15, 2),
		mustKMajority(40, 3),
		mustLog(14),
		mustLog(29),
		mustWall([]int{2, 1, 3, 4, 2}),
		hqs.Grouped(5, 3),
		hqs.Uniform(3, 3),
		mixedHQS(),
	}
}

// TestCircuitAgreesWithWord evaluates each availability circuit on random
// lane groups and checks all 64 extracted masks against the bitset
// Available, the reference every circuit is checked against.
func TestCircuitAgreesWithWord(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for _, sys := range circuitSystems(t) {
		circ := sys.AvailabilityCircuit()
		if circ == nil {
			t.Fatalf("%s: no availability circuit", sys.Name())
		}
		n := sys.Universe()
		if circ.Lanes() != n {
			t.Fatalf("%s: circuit has %d lanes, universe is %d", sys.Name(), circ.Lanes(), n)
		}
		lanes := make([]uint64, n)
		scratch := make([]uint64, circ.NumRegs())
		for round := 0; round < 200; round++ {
			for j := range lanes {
				// Mix densities so full lines and covers actually appear.
				switch round % 4 {
				case 0:
					lanes[j] = rng.Uint64()
				case 1:
					lanes[j] = rng.Uint64() | rng.Uint64()
				case 2:
					lanes[j] = rng.Uint64() | rng.Uint64() | rng.Uint64()
				case 3:
					lanes[j] = rng.Uint64() & rng.Uint64()
				}
			}
			got := circ.Eval(lanes, scratch)
			for s := 0; s < 64; s++ {
				var mask uint64
				for j := range lanes {
					mask |= (lanes[j] >> uint(s) & 1) << uint(j)
				}
				want := sys.Available(bitset.FromWord(n, mask))
				if (got>>uint(s)&1 == 1) != want {
					t.Fatalf("%s: circuit says %v for mask %#x, Available says %v",
						sys.Name(), !want, mask, want)
				}
			}
		}
	}
}

// setOnlyAdapter hides the circuit (and cache-key) interfaces so the
// enumerator falls back to the scalar bitset path.
type setOnlyAdapter struct{ s circuitSystem }

func (a setOnlyAdapter) Universe() int                  { return a.s.Universe() }
func (a setOnlyAdapter) Available(live bitset.Set) bool { return a.s.Available(live) }

// TestCircuitEnumeratorAgrees compares the lane-evaluated transversal
// counts with the scalar bitset path on systems small enough to enumerate.
func TestCircuitEnumeratorAgrees(t *testing.T) {
	systems := []circuitSystem{
		hgrid.NewRW(hgrid.Uniform(2, 2, 2)), // n = 16
		htgrid.Auto(4, 4),                   // n = 16
		htriang.New(5),                      // n = 15
		htriang.New(6),                      // n = 21
		majority.NewTieBreak(12),
		mustKMajority(15, 2),
		mustLog(14),
		hqs.Grouped(5, 3),
	}
	for _, sys := range systems {
		fast := analysis.TransversalCounts(sys)
		slow := analysis.TransversalCounts(setOnlyAdapter{sys})
		for i := range slow {
			if fast[i] != slow[i] {
				t.Fatalf("%s: circuit path a_%d = %d, bitset path = %d",
					sys.Name(), i, fast[i], slow[i])
			}
		}
	}
}
