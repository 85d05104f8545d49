package analysis_test

// Pins for the baseline constructions (majority, HQS, CWlog, the
// k-coteries and the Byzantine systems): their exact transversal counts and pick verdicts, recorded
// from the hand-written availability predicates their quorum gates
// replaced, and their seeded pick streams. Their Available and decision
// diagram both read the gate, so these pins, the
// closed-form failure probabilities and the enumerated quorums are the
// independent references.

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/bqs"
	"hquorum/internal/cwlog"
	"hquorum/internal/hqs"
	"hquorum/internal/htriang"
	"hquorum/internal/kcoterie"
	"hquorum/internal/majority"
	"hquorum/internal/quorum"
)

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

func mustKMajority(n, k int) *kcoterie.KMajority {
	s, err := kcoterie.NewKMajority(n, k)
	if err != nil {
		panic(err)
	}
	return s
}

func mixedHQS() *hqs.System {
	s, err := hqs.New(&hqs.Shape{Children: []*hqs.Shape{
		hqs.UniformShape(1, 3), hqs.UniformShape(1, 5), {},
	}})
	if err != nil {
		panic(err)
	}
	return s
}

// kMajorityQuorums enumerates a k-majority's quorums (every set of
// MinQuorumSize processes), which the package itself does not.
type kMajorityQuorums struct{ *kcoterie.KMajority }

func (s kMajorityQuorums) EnumerateQuorums(fn func(q bitset.Set) bool) {
	n, q := s.Universe(), s.MinQuorumSize()
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		if bits.OnesCount64(mask) == q && !fn(bitset.FromWord(n, mask)) {
			return
		}
	}
}

// TestBaselineAvailabilityConsistency checks every baseline shape's
// gate-evaluated Available on every live set against its enumerated
// quorums, closed upwards.
func TestBaselineAvailabilityConsistency(t *testing.T) {
	for _, sys := range []quorum.System{
		majority.New(21),
		majority.NewTieBreak(20),
		hqs.Grouped(5, 3),
		hqs.Uniform(2, 3),
		mixedHQS(),
		mustLog(14),
		mustWall([]int{2, 1, 3, 4, 2}),
		kMajorityQuorums{mustKMajority(15, 2)},
	} {
		if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
			t.Error(err)
		}
	}
}

// TestBaselineCountsPinned pins the exact transversal counts of the
// baseline configurations up to 24 processes.
func TestBaselineCountsPinned(t *testing.T) {
	for _, c := range []struct {
		sys  namedSystem
		want uint64
	}{
		{majority.New(21), 0x4131cf7eac6d989b},
		{mustKMajority(15, 2), 0x2453f0a53d28e31f},
		{mustLog(14), 0x4032fd9c1935f16f},
		{mustWall([]int{2, 1, 3, 4, 2}), 0x915b8f406172a13b},
		{hqs.Grouped(5, 3), 0x40b283475fe8b529},
	} {
		h := fnv.New64a()
		fmt.Fprintln(h, analysis.TransversalCounts(c.sys))
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: transversal counts hash to %#x, want %#x", c.sys.Name(), got, c.want)
		}
	}
}

// TestBaselinePickStreamsPinned pins Pick over random live sets of mixed
// density (30–100 % live): every outcome (the quorum, or no quorum) and
// where the rng stands after it hash to the stream; only whether each pick
// found a quorum hashes to the verdicts, which the hand-written predicates
// produced and which must never move. Majority, HQS, CWlog, the k-majority
// and M-Grid draw with Gate.Pick; the partitioned coterie and the
// clustered Byzantine system are quorum.Composite and draw through their
// parts (the h-triang ones' streams were recorded on the hand-written
// compositions, and held). A pick fails exactly when Available is false
// and otherwise returns a live quorum.
func TestBaselinePickStreamsPinned(t *testing.T) {
	part, err := kcoterie.NewPartitioned(majority.New(7), hqs.Grouped(3, 3), mustLog(8))
	if err != nil {
		t.Fatal(err)
	}
	triPart, err := kcoterie.NewPartitioned(htriang.New(3), htriang.New(3))
	if err != nil {
		t.Fatal(err)
	}
	byz, err := bqs.NewClustered(htriang.New(4), 1, bqs.Dissemination)
	if err != nil {
		t.Fatal(err)
	}
	mgrid, err := bqs.NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sys            quorum.System
		want, verdicts uint64
	}{
		{majority.New(15), 0xefb0123a00f23d8, 0x12c2ad786f97e2e5},
		{majority.New(21), 0x7104bcaacf1ec665, 0x9b2ccb7eff584d3d},
		{majority.NewTieBreak(8), 0x81dbef6044490f05, 0x55c6e56c54e257b5},
		{majority.NewTieBreak(28), 0x7098c9d7e40a9032, 0x6e6c16353b4d79ef},
		{hqs.Grouped(5, 3), 0x23ce7c8e65d24d1e, 0x87863dfb8b386efd},
		{hqs.Uniform(3, 3), 0x4ddf0b001bebc30d, 0x5521ad64e609a4bd},
		{hqs.Uniform(2, 3), 0x86fe8724fcad066, 0xb6522d126bd76ed7},
		{mixedHQS(), 0x84592ff49fd49715, 0xb9d1e40df897d5b5},
		{mustLog(14), 0x5ff6cd8dc6cfa0c4, 0x4699e35f14c1e4af},
		{mustLog(29), 0xce2c128b1b1aff4d, 0x295898c641fb3cbf},
		{mustWall([]int{2, 1, 3, 4, 2}), 0xa23d91b44e9233e0, 0xcf675007ffe5e73f},
		{mustKMajority(15, 2), 0xf7257e19145b7ad3, 0xa6372b84a499e89d},
		{mustKMajority(16, 3), 0x263ecc1c264680f, 0xcaff29d3a94282a7},
		{part, 0xee9c87b2581b4014, 0x8e8e84c029afeaad},
		{triPart, 0x6ea860cd393da28, 0x808f1de299a0350f},
		{byz, 0xf058c35baf23157e, 0x96d1214ade9eff1f},
		{mgrid, 0xae13fd3ca7a154cb, 0xec62d7c6b89cfaed},
	} {
		sys := c.sys
		n := sys.Universe()
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
			rng := rand.New(rand.NewSource(master.Int63()))
			q, err := sys.Pick(rng, live)
			if (err == nil) != sys.Available(live) {
				t.Fatalf("%s: Pick error %v on live %v, Available says %t", sys.Name(), err, live, sys.Available(live))
			}
			if err != nil {
				fmt.Fprintln(hash, "none")
				fmt.Fprintln(verdicts, "none")
			} else {
				if !q.SubsetOf(live) || !sys.Available(q) {
					t.Fatalf("%s: picked %v is no live quorum within %v", sys.Name(), q, live)
				}
				fmt.Fprintln(hash, q.Indices())
				fmt.Fprintln(verdicts, "some")
			}
			fmt.Fprintln(hash, rng.Int63())
		}
		if got := hash.Sum64(); got != c.want {
			t.Errorf("%s: seeded pick stream hashes to %#x, want %#x", sys.Name(), got, c.want)
		}
		if got := verdicts.Sum64(); got != c.verdicts {
			t.Errorf("%s: pick verdicts hash to %#x, want %#x", sys.Name(), got, c.verdicts)
		}
	}
}
