package kcoterie

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/dmutex"
	"hquorum/internal/htriang"
	"hquorum/internal/majority"
	"hquorum/internal/quorum"
)

func TestKMajoritySizes(t *testing.T) {
	tests := []struct{ n, k, q int }{
		{9, 2, 4}, {10, 2, 4}, {15, 2, 6}, {16, 3, 5}, {7, 1, 4},
	}
	for _, tt := range tests {
		s, err := NewKMajority(tt.n, tt.k)
		if err != nil {
			t.Fatal(err)
		}
		if s.MinQuorumSize() != tt.q {
			t.Errorf("n=%d k=%d: quorum %d, want %d", tt.n, tt.k, s.MinQuorumSize(), tt.q)
		}
		// k-intersection: (k+1) quorums exceed the universe.
		if (tt.k+1)*tt.q <= tt.n {
			t.Errorf("n=%d k=%d: k-intersection violated", tt.n, tt.k)
		}
		// k-availability: k disjoint quorums fit.
		if tt.k*tt.q > tt.n {
			t.Errorf("n=%d k=%d: k disjoint quorums do not fit", tt.n, tt.k)
		}
	}
	if _, err := NewKMajority(3, 3); err == nil {
		t.Error("k >= n accepted")
	}
	if _, err := NewKMajority(15, 4); err == nil {
		t.Error("infeasible k-majority accepted (k disjoint quorums do not fit)")
	}
	if _, err := NewKMajority(5, 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

// TestKMajorityIsOrdinaryCoterieForK1: the 1-majority is the classic
// majority system.
func TestKMajorityIsOrdinaryCoterieForK1(t *testing.T) {
	s, err := NewKMajority(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := majority.New(9)
	for mask := uint64(0); mask < 1<<9; mask++ {
		live := bitset.FromWord(9, mask)
		if s.Available(live) != ref.Available(live) {
			t.Fatalf("disagreement with majority on %v", live)
		}
	}
}

// TestKMajorityGatePicks: Pick is Gate.Pick on the threshold formula, so
// its picks must be exactly the listed quorums, every q-subset.
func TestKMajorityGatePicks(t *testing.T) {
	s, err := NewKMajority(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Gate()
	if err := quorum.CheckPick(g, s.n, rand.New(rand.NewSource(8)), 500); err != nil {
		t.Fatal(err)
	}
	listed := g.Quorums(s.n)
	for _, q := range listed {
		if q.Count() != s.q {
			t.Fatalf("listed quorum %v has %d processes, want %d", q, q.Count(), s.q)
		}
	}
	if len(listed) != 35 { // C(7, 3)
		t.Fatalf("gate lists %d quorums, want 35", len(listed))
	}
}

func TestPartitioned(t *testing.T) {
	p, err := NewPartitioned(htriang.New(3), htriang.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Universe() != 12 || p.K() != 2 {
		t.Fatalf("universe %d k %d", p.Universe(), p.K())
	}
	// Two disjoint quorums exist on the full universe.
	if !p.AvailableK(bitset.Universe(12), 2) {
		t.Fatal("2 disjoint quorums should exist")
	}
	// Killing one slice leaves 1-availability but not 2.
	live := bitset.Universe(12)
	for i := 0; i < 6; i++ {
		live.Remove(i)
	}
	if !p.Available(live) || p.AvailableK(live, 2) {
		t.Fatal("availability accounting wrong after slice loss")
	}
	rng := rand.New(rand.NewSource(1))
	if err := quorum.CheckPickConsistency(p, rng, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartitioned(); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := NewPartitioned(nil); err == nil {
		t.Error("nil sub-coterie accepted")
	}
}

// TestPartitionedCountsWithoutWordSubs: a partition enumerates through its
// bitset Available, which asks every sub-coterie (a Composite, the
// h-triang) on its own slice, and its transversal counts match a
// brute-force sweep of that Available.
func TestPartitionedCountsWithoutWordSubs(t *testing.T) {
	maj3 := func() quorum.System { return majority.New(3) }
	comp, err := quorum.NewComposite(maj3(), []quorum.System{maj3(), maj3(), maj3()})
	if err != nil {
		t.Fatal(err)
	}
	for _, subs := range [][]quorum.System{
		{comp, maj3()},
		{htriang.New(3), htriang.New(3)},
	} {
		p, err := NewPartitioned(subs...)
		if err != nil {
			t.Fatal(err)
		}
		n := p.Universe()
		want := make([]uint64, n+1)
		full := uint64(1)<<uint(n) - 1
		for failed := uint64(0); failed <= full; failed++ {
			if !p.Available(bitset.FromWord(n, full&^failed)) {
				want[bits.OnesCount64(failed)]++
			}
		}
		if got := analysis.TransversalCounts(p); !slices.Equal(got, want) {
			t.Fatalf("%s: transversal counts %v, brute force %v", p.Name(), got, want)
		}
	}
}

// TestKIntersectionSampled: no k+1 sampled quorums are pairwise disjoint.
func TestKIntersectionSampled(t *testing.T) {
	systems := []interface {
		quorum.System
		K() int
	}{
		mustKM(t, 9, 2),
		mustKM(t, 16, 3),
		mustPart(t),
	}
	rng := rand.New(rand.NewSource(5))
	for _, sys := range systems {
		live := bitset.Universe(sys.Universe())
		for trial := 0; trial < 300; trial++ {
			qs := make([]bitset.Set, sys.K()+1)
			for i := range qs {
				q, err := sys.Pick(rng, live)
				if err != nil {
					t.Fatal(err)
				}
				qs[i] = q
			}
			pairwiseDisjoint := true
			for i := range qs {
				for j := i + 1; j < len(qs); j++ {
					if qs[i].Intersects(qs[j]) {
						pairwiseDisjoint = false
					}
				}
			}
			if pairwiseDisjoint {
				t.Fatalf("%s: %d pairwise disjoint quorums found", sys.Name(), sys.K()+1)
			}
		}
	}
}

func mustKM(t *testing.T, n, k int) *KMajority {
	t.Helper()
	s, err := NewKMajority(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPart(t *testing.T) *Partitioned {
	t.Helper()
	p, err := NewPartitioned(htriang.New(3), htriang.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestKMutualExclusion runs the unmodified Maekawa protocol over a
// 2-coterie: at most 2 nodes ever hold the resource simultaneously, and
// concurrency 2 is actually achieved.
func TestKMutualExclusion(t *testing.T) {
	sys := mustKM(t, 9, 2)
	net := cluster.New(cluster.WithSeed(77), cluster.WithLatency(time.Millisecond, 5*time.Millisecond))
	holding := 0
	maxHolding := 0
	var nodes []*dmutex.Node
	for i := 0; i < 9; i++ {
		n, err := dmutex.NewNode(cluster.NodeID(i), dmutex.Config{
			System:   sys,
			Workload: dmutex.Workload{Count: 3, Hold: 4 * time.Millisecond, Think: time.Millisecond},
			OnAcquire: func(id cluster.NodeID, at time.Duration) {
				holding++
				if holding > maxHolding {
					maxHolding = holding
				}
				if holding > 2 {
					t.Fatalf("%d simultaneous holders at %v", holding, at)
				}
			},
			OnRelease: func(cluster.NodeID, time.Duration) { holding-- },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(cluster.NodeID(i), n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.Start(net); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(2 * time.Minute)
	for _, n := range nodes {
		if !n.Done() {
			t.Fatalf("node stuck (entries %d)", n.Entries)
		}
	}
	if maxHolding != 2 {
		t.Fatalf("peak concurrency %d, want 2", maxHolding)
	}
}

// TestConcurrentFirstUse: the gate is built on first use, and concurrent
// first users (the enumerator's workers, pickers, the availability
// queries) must share one build. Meaningful under -race.
func TestConcurrentFirstUse(t *testing.T) {
	sys := mustKM(t, 15, 2)
	live := bitset.Universe(sys.Universe())
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0:
				if !sys.Available(live) {
					t.Error("fully live system unavailable")
				}
			case 1:
				if sys.Gate() == nil {
					t.Error("no gate")
				}
			case 2:
				if _, err := sys.Pick(rand.New(rand.NewSource(int64(w))), live); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}
