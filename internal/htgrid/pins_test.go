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
		line := bitset.New(s.h.Universe())
		if !s.h.FullLineGate().Pick(rng, live, line) || s.covers[s.boundary(line)].Eval(live) {
			return false
		}
	}
	return true
}

// TestPickStreamsPinned pins Pick over random live sets of mixed density
// (30–100 % live), on the Auto and the flat hierarchy of every shape in
// both orientations: every outcome (the quorum, or no quorum) and where
// the rng stands after it hash to the stream of the sampler built on
// Gate.Pick. Chaos schedules and cost-blind sessions depend on these draws
// byte for byte. A pick fails exactly when Available is false, so the
// verdict hash (whether each pick found a quorum, unchanged since the
// hand-written availability predicates and object walks) carries
// Available's verdicts to grids too large to check exhaustively. The tall
// shapes make Pick fall back to the best-boundary line; the test asserts
// that the fallback ran in both orientations.
func TestPickStreamsPinned(t *testing.T) {
	fallbacks := map[Orientation]int{}
	for _, c := range []struct {
		rows, cols     int
		want, verdicts uint64
	}{
		{3, 3, 0x64341c1b75a05167, 0x179eb17d7d1ee92f},
		{4, 4, 0x7c6348735d02fd5, 0x34c9052482b7bbb5},
		{5, 5, 0x1498d6cd92cde875, 0x9a0fb5cff451316f},
		{6, 6, 0x1ec65c452569ecaf, 0xf0ee5abebbade955},
		{7, 7, 0x51481dd1eedd82f8, 0x2cedc40603f29f77},
		{8, 8, 0x958e56e0f83fc19b, 0xdce79226d77d5795},
		{9, 9, 0xcb2af4d2db0b303a, 0x7672ccb2c92e595},
		{10, 10, 0x890e05f9e1985d1a, 0xe9184babafecd04d},
		{7, 5, 0x9e7d14ca4175ca4, 0xb07c6c279766b947},
		{3, 6, 0xe2531613143ec0ee, 0x49e6a6d62834525},
		{9, 3, 0x57f30639b57dad88, 0x4485cc7e893d85cd},
		{10, 3, 0x1b342bc11ddf6eb7, 0x53d75c82a7d6f0cd},
	} {
		hash, verdicts := fnv.New64a(), fnv.New64a()
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
						fmt.Fprintln(verdicts, "none")
					} else {
						fmt.Fprintln(hash, q.Indices())
						fmt.Fprintln(verdicts, "some")
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
		if got := verdicts.Sum64(); got != c.verdicts {
			t.Errorf("%dx%d: pick verdicts hash to %#x, want %#x", c.rows, c.cols, got, c.verdicts)
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
