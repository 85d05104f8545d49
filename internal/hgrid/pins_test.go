package hgrid

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"testing"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// hashPick writes a pick's outcome — the quorum, or none — and where its
// rng stands after it to stream, and only whether it found a quorum to
// verdicts.
func hashPick(stream, verdicts io.Writer, rng *rand.Rand, q bitset.Set, ok bool) {
	if !ok {
		fmt.Fprintln(stream, "none")
		fmt.Fprintln(verdicts, "none")
	} else {
		fmt.Fprintln(stream, q.Indices())
		fmt.Fprintln(verdicts, "some")
	}
	fmt.Fprintln(stream, rng.Int63())
}

// TestPickStreamsPinned pins the random picks over random live sets of
// mixed density (30–100 % live): the read-write system's Pick, then
// Gate.Pick on the row-cover, the full-line and both partial row-cover
// gates at a random boundary row. Every outcome and where the rng stands
// after it hash to the stream Gate.Pick draws; whether each pick found a
// quorum hashes to the verdicts, which the hand-written availability
// predicates and object walks produced before the gates replaced them and
// which must never move. RWSystem.Pick must fail exactly when Available
// is false.
func TestPickStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		h              *Hierarchy
		want, verdicts uint64
	}{
		{Auto(3, 3), 0x8d9e38f3c00cf718, 0xd57743514ea9eb45},
		{Auto(4, 4), 0xb29349ca351fcefe, 0x413d59ddc789032f},
		{Auto(5, 5), 0x69a3212911fbb181, 0x2092e5db992fc76f},
		{Auto(6, 4), 0xa0b36785a857b938, 0x96a2e15e340f82bf},
		{Auto(8, 8), 0x62c63b094068768b, 0x1e40d1e2e7e79e35},
		{Auto(10, 10), 0x753fa57dceec6090, 0xd77afae4295eab35},
		{Auto(9, 3), 0xe66bb8ae25288ca1, 0x50900522d52d79f7},
		{Flat(3, 5), 0x387cb7a22a5bf447, 0xa01e685dadcb32e5},
		{Flat(7, 7), 0x10df10865adac9d8, 0xc6ff7d6e4e6cf38d},
		{Uniform(2, 3, 2), 0xe8e43b3ff8c22756, 0x8ad2ccc81067effd},
		{Uniform(3, 2, 3), 0x39c9e14f04515007, 0x36777a9140a7fe15},
	} {
		sys := NewRW(c.h)
		n := c.h.Universe()
		hash, verdicts := fnv.New64a(), fnv.New64a()
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
			hashPick(hash, verdicts, rng, q, err == nil)
			for _, g := range []*quorum.Gate{c.h.RowCoverGate(), c.h.FullLineGate(), c.h.CoverGate(row, true), c.h.CoverGate(row, false)} {
				q := bitset.New(n)
				hashPick(hash, verdicts, rng, q, g.Pick(rng, live, q))
			}
		}
		if got := hash.Sum64(); got != c.want {
			t.Errorf("%s %dx%d l=%d: seeded pick stream hashes to %#x, want %#x",
				sys.Name(), c.h.Rows(), c.h.Cols(), c.h.Levels(), got, c.want)
		}
		if got := verdicts.Sum64(); got != c.verdicts {
			t.Errorf("%s %dx%d l=%d: pick verdicts hash to %#x, want %#x",
				sys.Name(), c.h.Rows(), c.h.Cols(), c.h.Levels(), got, c.verdicts)
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
			if !h.CoverGate(w, true).Pick(rng, live, bitset.New(36)) {
				t.Error("fully live grid has no partial row-cover")
			}
		}(w)
	}
	wg.Wait()
}
