package hgrid

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"testing"

	"hquorum/internal/bitset"
)

// hashPick writes a pick's outcome — the quorum, or none — and where its
// rng stands after it.
func hashPick(w io.Writer, rng *rand.Rand, q bitset.Set, err error) {
	if err != nil {
		fmt.Fprintln(w, "none")
	} else {
		fmt.Fprintln(w, q.Indices())
	}
	fmt.Fprintln(w, rng.Int63())
}

// TestPickStreamsPinned pins the random pickers over random live sets of
// mixed density (30–100 % live): the read-write system's Pick, the
// row-cover and full-line pickers and both partial row-cover pickers at a
// random boundary row. Every outcome and where the rng stands after it
// hash to what the hand-written availability predicates produced before
// the gates replaced them; RWSystem.Pick must fail exactly when Available
// is false.
func TestPickStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		h    *Hierarchy
		want uint64
	}{
		{Auto(3, 3), 0xf6710544f44acd68},
		{Auto(4, 4), 0x717561eafc57e810},
		{Auto(5, 5), 0xe9d57f5d14bc066f},
		{Auto(6, 4), 0x4b1e73d77d8a038e},
		{Auto(8, 8), 0x1222ce0e0c0228d7},
		{Auto(10, 10), 0xe83ef8273de85b7d},
		{Auto(9, 3), 0x55f0ed962f565b17},
		{Flat(3, 5), 0x989b3241f8b9c09c},
		{Flat(7, 7), 0xf6bb1b4401172619},
		{Uniform(2, 3, 2), 0xe35448c8dcd77c39},
		{Uniform(3, 2, 3), 0xd5f14c0c6d2d4f26},
	} {
		sys := NewRW(c.h)
		n := c.h.Universe()
		hash := fnv.New64a()
		master := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 500; i++ {
			live := bitset.New(n)
			density := 30 + master.Intn(71)
			for id := 0; id < n; id++ {
				if master.Intn(100) < density {
					live.Add(id)
				}
			}
			row := master.Intn(c.h.Rows()+2) - 1
			rng := rand.New(rand.NewSource(master.Int63()))
			q, err := sys.Pick(rng, live)
			if (err == nil) != sys.Available(live) {
				t.Fatalf("%s: Pick error %v on live %v, Available says %t", sys.Name(), err, live, sys.Available(live))
			}
			hashPick(hash, rng, q, err)
			q, err = c.h.PickRowCover(rng, live)
			hashPick(hash, rng, q, err)
			q, err = c.h.PickFullLine(rng, live)
			hashPick(hash, rng, q, err)
			q, err = c.h.PickPartialRowCoverAbove(rng, live, row)
			hashPick(hash, rng, q, err)
			q, err = c.h.PickPartialRowCoverBelow(rng, live, row)
			hashPick(hash, rng, q, err)
		}
		if got := hash.Sum64(); got != c.want {
			t.Errorf("%s %dx%d l=%d: seeded pick stream hashes to %#x, want %#x",
				sys.Name(), c.h.Rows(), c.h.Cols(), c.h.Levels(), got, c.want)
		}
	}
}

// TestConcurrentFirstUse: the gates compile lazily on first use, and
// concurrent first users (the enumerator's workers, coordinators picking)
// must share one compilation. Meaningful under -race.
func TestConcurrentFirstUse(t *testing.T) {
	h := Auto(6, 6)
	sys := NewRW(h)
	live := bitset.Universe(36)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			if !sys.Available(live) || !h.CoverGate(w, w%2 == 0).Eval(live) {
				t.Error("fully live grid unavailable")
			}
			if _, err := h.PickPartialRowCoverAbove(rng, live, w); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}
