package htgrid

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"hquorum/internal/bitset"
	"hquorum/internal/hgrid"
)

// tookFallback replays a Pick drawn from seed on live and reports whether
// it settled for the best-boundary line: the first sampled line and all
// eight re-samples demanded an infeasible cover.
func tookFallback(s *System, seed int64, live bitset.Set) bool {
	if !s.Available(live) {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 9; i++ {
		line, err := s.h.PickFullLine(rng, live)
		if err != nil || s.coverFeasible(live, s.boundary(line)) {
			return false
		}
	}
	return true
}

// TestPickStreamsPinned pins Pick over random live sets of mixed density
// (30–100 % live), on the Auto and the flat hierarchy of every shape in
// both orientations: every outcome (the quorum, or no quorum) and where
// the rng stands after it hash to what the hand-written availability
// predicates produced before the gates replaced them. Chaos schedules and
// cost-blind sessions depend on these draws byte for byte, and a pick
// fails exactly when Available is false, so the pins also carry
// Available's verdicts to grids too large to check exhaustively. The tall
// shapes make Pick fall back to the best-boundary line; the test asserts
// that the fallback ran in both orientations.
func TestPickStreamsPinned(t *testing.T) {
	fallbacks := map[Orientation]int{}
	for _, c := range []struct {
		rows, cols int
		want       uint64
	}{
		{3, 3, 0xef0232bf95e781ba},
		{4, 4, 0x6c95a9c180bfdaf4},
		{5, 5, 0xbef7050829d23d33},
		{6, 6, 0xecae1f0a01fb0f9e},
		{7, 7, 0x3e4837f2f9f5719e},
		{8, 8, 0xd53bd8b3f64e7df3},
		{9, 9, 0x692386ee1b266482},
		{10, 10, 0x7c5784e8cf2f1f9c},
		{7, 5, 0x166973355f65a0a7},
		{3, 6, 0xc805de684cb01a6a},
		{9, 3, 0x2013389f0c8ae42f},
		{10, 3, 0xab774eb6709a9779},
	} {
		hash := fnv.New64a()
		for _, h := range []*hgrid.Hierarchy{hgrid.Auto(c.rows, c.cols), hgrid.Flat(c.rows, c.cols)} {
			for _, o := range []Orientation{OrientAboveLine, OrientBelowLine} {
				sys := NewOriented(h, o)
				master := rand.New(rand.NewSource(int64(c.rows*100 + c.cols)))
				for i := 0; i < 600; i++ {
					live := bitset.New(sys.Universe())
					density := 30 + master.Intn(71)
					for id := 0; id < sys.Universe(); id++ {
						if master.Intn(100) < density {
							live.Add(id)
						}
					}
					seed := master.Int63()
					rng := rand.New(rand.NewSource(seed))
					q, err := sys.Pick(rng, live)
					if (err == nil) != sys.Available(live) {
						t.Fatalf("%s/l=%d/o%d: Pick error %v on live %v, Available says %t",
							sys.Name(), h.Levels(), o, err, live, sys.Available(live))
					}
					if err != nil {
						fmt.Fprintln(hash, "none")
					} else {
						fmt.Fprintln(hash, q.Indices())
					}
					fmt.Fprintln(hash, rng.Int63())
					if tookFallback(sys, seed, live) {
						fallbacks[o]++
					}
				}
			}
		}
		if got := hash.Sum64(); got != c.want {
			t.Errorf("%dx%d: seeded pick stream hashes to %#x, want %#x", c.rows, c.cols, got, c.want)
		}
	}
	if fallbacks[OrientAboveLine] == 0 || fallbacks[OrientBelowLine] == 0 {
		t.Errorf("best-boundary fallback ran %v times per orientation, want some in each", fallbacks)
	}
	t.Logf("best-boundary fallbacks per orientation: %v", fallbacks)
}

// TestConcurrentFirstUse: the boundary gates compile lazily on first use,
// and concurrent first users must share one compilation. Meaningful under
// -race.
func TestConcurrentFirstUse(t *testing.T) {
	for _, o := range []Orientation{OrientAboveLine, OrientBelowLine} {
		sys := NewOriented(hgrid.Auto(6, 6), o)
		live := bitset.Universe(36)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := sys.Pick(rand.New(rand.NewSource(int64(w))), live); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}
