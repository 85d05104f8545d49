package htriang

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"hquorum/internal/bitset"
)

// TestPickStreamsPinned pins Pick over random live sets of mixed density
// (30–100 % live) on the canonical triangles k = 3 … 13 and a grown spec:
// every outcome (the quorum, or no quorum) and where the rng stands after
// it hash to what the hand-written availability predicates produced
// before the gates replaced them. A pick fails exactly when Available is
// false, so the pins also carry Available's verdicts to triangles too
// large to check exhaustively.
func TestPickStreamsPinned(t *testing.T) {
	square, err := Canonical(6).GrowGridSquare()
	if err != nil {
		t.Fatal(err)
	}
	grownSys, err := FromSpec(square.GrowT2().GrowGridCols())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"h-triang-spec(n=36)": 0x24fa34e393e8b875,
		"h-triang(3)":         0x7a47d6bf23299115,
		"h-triang(4)":         0x3c48d112e26d563b,
		"h-triang(5)":         0x8c147aaf8b2a4f7c,
		"h-triang(6)":         0x86083b61e007a238,
		"h-triang(7)":         0x68c8f971569b71f2,
		"h-triang(8)":         0x1a8610ec36ea3c2c,
		"h-triang(9)":         0x36df8ec8df3a74ff,
		"h-triang(10)":        0x50d13fa4529be841,
		"h-triang(11)":        0xbb919366d2b66f43,
		"h-triang(12)":        0x6b6087a91cbc7991,
		"h-triang(13)":        0xf4b198ae3c25e90d,
	}
	systems := []*System{grownSys}
	for k := 3; k <= 13; k++ {
		systems = append(systems, New(k))
	}
	for _, sys := range systems {
		n := sys.Universe()
		hash := fnv.New64a()
		master := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 800; i++ {
			live := bitset.New(n)
			density := 30 + master.Intn(71)
			for id := 0; id < n; id++ {
				if master.Intn(100) < density {
					live.Add(id)
				}
			}
			rng := rand.New(rand.NewSource(master.Int63()))
			q, err := sys.Pick(rng, live)
			if (err == nil) != sys.Available(live) {
				t.Fatalf("%s: Pick error %v on live %v, Available says %t", sys.Name(), err, live, sys.Available(live))
			}
			if err != nil {
				fmt.Fprintln(hash, "none")
			} else {
				fmt.Fprintln(hash, q.Indices())
			}
			fmt.Fprintln(hash, rng.Int63())
		}
		if got := hash.Sum64(); got != want[sys.Name()] {
			t.Errorf("%s: seeded pick stream hashes to %#x, want %#x", sys.Name(), got, want[sys.Name()])
		}
	}
}

// TestConcurrentFirstUse: the node gates compile lazily on first use, and
// concurrent first users must share one compilation. Meaningful under
// -race.
func TestConcurrentFirstUse(t *testing.T) {
	sys := New(8)
	live := bitset.Universe(sys.Universe())
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
