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
// it hash to the stream Gate.Pick draws. A pick fails exactly when
// Available is false, so the verdict hash (whether each pick found a
// quorum, unchanged since the hand-written availability predicates and
// pick walk) carries Available's verdicts to triangles too large to check
// exhaustively.
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
		"h-triang-spec(n=36)": 0xa3aaabe4ec7eebac,
		"h-triang(3)":         0x686f342cfa0104fd,
		"h-triang(4)":         0x3c48d112e26d563b,
		"h-triang(5)":         0xdd7c53746afb17d7,
		"h-triang(6)":         0x199e936a28007e3a,
		"h-triang(7)":         0xf79a5c50d6d81bc0,
		"h-triang(8)":         0x1a8610ec36ea3c2c,
		"h-triang(9)":         0x1cbec42f6b0bb38e,
		"h-triang(10)":        0x4c46b8987a7f6df6,
		"h-triang(11)":        0x6a3ca5d92482081f,
		"h-triang(12)":        0x9db1b30991952e8d,
		"h-triang(13)":        0xe11ebd6913f9c178,
	}
	wantVerdicts := map[string]uint64{
		"h-triang-spec(n=36)": 0xbadae7cbc827ca2d,
		"h-triang(3)":         0xc4200a3888fe5405,
		"h-triang(4)":         0x3e289956db5af197,
		"h-triang(5)":         0x19cd6d7f61114fbf,
		"h-triang(6)":         0xd1578535061b877,
		"h-triang(7)":         0x13bff8f84b01646d,
		"h-triang(8)":         0xdc891fe9b61b12b5,
		"h-triang(9)":         0x3ac275b1ac559577,
		"h-triang(10)":        0xce8ae5d145bb4a27,
		"h-triang(11)":        0x65a149751e5d445d,
		"h-triang(12)":        0xa538e3faa988807d,
		"h-triang(13)":        0x5890213148f721f7,
	}
	systems := []*System{grownSys}
	for k := 3; k <= 13; k++ {
		systems = append(systems, New(k))
	}
	for _, sys := range systems {
		n := sys.Universe()
		hash, verdicts := fnv.New64a(), fnv.New64a()
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
				fmt.Fprintln(verdicts, "none")
			} else {
				fmt.Fprintln(hash, q.Indices())
				fmt.Fprintln(verdicts, "some")
			}
			fmt.Fprintln(hash, rng.Int63())
		}
		if got := hash.Sum64(); got != want[sys.Name()] {
			t.Errorf("%s: seeded pick stream hashes to %#x, want %#x", sys.Name(), got, want[sys.Name()])
		}
		if got := verdicts.Sum64(); got != wantVerdicts[sys.Name()] {
			t.Errorf("%s: pick verdicts hash to %#x, want %#x", sys.Name(), got, wantVerdicts[sys.Name()])
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
