// Package kcoterie implements k-coteries — quorum systems for k-mutual
// exclusion, the generalization Kuo & Huang's geometric paper (the source
// of the paper's Y system) constructs alongside ordinary coteries.
//
// A k-coterie allows up to k processes in the critical section at once:
//
//   - k-intersection: among any k+1 quorums, some two intersect (so k+1
//     simultaneous holders are impossible — each holder owns exclusive
//     grants from every member of its quorum);
//   - k-availability: there exist k pairwise disjoint quorums (so k
//     processes can hold the resource simultaneously).
//
// Two constructions are provided: the k-majority (all sets of
// ⌊n/(k+1)⌋+1 processes) and the partition construction (k disjoint
// ordinary coteries side by side). Both implement quorum.System, so the
// Maekawa-style protocol of package dmutex runs k-mutual exclusion with
// them unchanged — its arbiters grant one request at a time, which is
// exactly the k-coterie safety argument.
//
// The k-majority states its quorums as one quorum.Gate, which its
// Available evaluates, its Pick draws from (Gate.Pick) and the analyzer
// counts exactly through its decision diagram. A partition takes any
// sub-coteries and is their quorum.Composite under the "one of k"
// coterie, so availability and picks go slice by slice through the
// sub-coteries' own Available and Pick.
package kcoterie

import (
	"fmt"
	"math/rand"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// KMajority is the threshold k-coterie: every set of ⌊n/(k+1)⌋+1
// processes is a quorum. Any k+1 quorums hold (k+1)·q > n process slots,
// so two share a process; and k·q ≤ n, so k disjoint quorums exist.
type KMajority struct {
	n, k, q int
	avail   quorum.Lazy
}

var (
	_ quorum.System = (*KMajority)(nil)
	_ quorum.System = (*Partitioned)(nil)
)

// NewKMajority returns the k-majority over n processes. It requires
// 1 ≤ k < n and that k quorums of ⌊n/(k+1)⌋+1 processes fit disjointly
// (k-availability); e.g. n=15, k=4 admits no uniform-size 4-coterie.
func NewKMajority(n, k int) (*KMajority, error) {
	if k < 1 || n <= k {
		return nil, fmt.Errorf("kcoterie: invalid n=%d k=%d", n, k)
	}
	q := n/(k+1) + 1
	if k*q > n {
		return nil, fmt.Errorf("kcoterie: no uniform k-majority for n=%d k=%d (k·%d > n)", n, k, q)
	}
	return &KMajority{n: n, k: k, q: q}, nil
}

// Name implements quorum.System.
func (s *KMajority) Name() string { return fmt.Sprintf("%d-majority(%d)", s.k, s.n) }

// Universe implements quorum.System.
func (s *KMajority) Universe() int { return s.n }

// K returns the concurrency level.
func (s *KMajority) K() int { return s.k }

// Available implements quorum.System (one quorum available).
func (s *KMajority) Available(live bitset.Set) bool {
	return s.Gate().Eval(live)
}

// Gate returns the system's quorums as one formula (compile), built on
// first use; exact availability is its decision diagram.
func (s *KMajority) Gate() *quorum.Gate { return s.avail.Gate(s.compile) }

// compile states the quorums as one formula: any q processes.
func (s *KMajority) compile() *quorum.Gate {
	leaves := make([]*quorum.Gate, s.n)
	for id := range leaves {
		leaves[id] = quorum.Leaf(id)
	}
	return quorum.Of(s.q, leaves...)
}

// AvailableK reports whether j pairwise disjoint quorums fit in live.
func (s *KMajority) AvailableK(live bitset.Set, j int) bool {
	return live.Count() >= j*s.q
}

// Pick implements quorum.System: Gate.Pick draws q live processes
// uniformly.
func (s *KMajority) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	out := bitset.New(s.n)
	if !s.Gate().Pick(rng, live, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

// MinQuorumSize implements quorum.System.
func (s *KMajority) MinQuorumSize() int { return s.q }

// MaxQuorumSize implements quorum.System.
func (s *KMajority) MaxQuorumSize() int { return s.q }

// Partitioned is the partition k-coterie: k ordinary coteries over
// disjoint process slices, with every sub-coterie quorum a quorum of the
// whole. Any k+1 quorums include two from the same slice (pigeonhole),
// which intersect; one quorum per slice gives k disjoint ones. It is the
// composition of the "one of k" coterie with the sub-coteries, and answers
// availability and picks through that quorum.Composite. It is no
// quorum.Enumerator: its quorums do not pairwise intersect.
type Partitioned struct {
	comp *quorum.Composite
	subs []quorum.System
}

// NewPartitioned builds the partition k-coterie from k ≥ 1 sub-coteries.
func NewPartitioned(subs ...quorum.System) (*Partitioned, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("kcoterie: no sub-coteries")
	}
	oneOf := make([]bitset.Set, len(subs))
	for i := range oneOf {
		oneOf[i] = bitset.FromIndices(len(subs), i)
	}
	comp, err := quorum.NewComposite(quorum.NewCoterie("one-of", len(subs), oneOf), subs)
	if err != nil { // a nil sub-coterie
		return nil, err
	}
	return &Partitioned{comp: comp, subs: subs}, nil
}

// Name implements quorum.System.
func (p *Partitioned) Name() string {
	return fmt.Sprintf("partitioned-%d-coterie(%d)", len(p.subs), p.Universe())
}

// Universe implements quorum.System.
func (p *Partitioned) Universe() int { return p.comp.Universe() }

// K returns the concurrency level (the number of partitions).
func (p *Partitioned) K() int { return len(p.subs) }

// Available implements quorum.System (some slice has a quorum).
func (p *Partitioned) Available(live bitset.Set) bool { return p.comp.Available(live) }

// AvailableK reports whether j pairwise disjoint quorums exist in live
// (at least j slices individually available).
func (p *Partitioned) AvailableK(live bitset.Set, j int) bool {
	return p.comp.AvailableElements(live).Count() >= j
}

// Pick implements quorum.System: a quorum from a uniformly random
// available slice.
func (p *Partitioned) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	return p.comp.Pick(rng, live)
}

// MinQuorumSize implements quorum.System.
func (p *Partitioned) MinQuorumSize() int { return p.comp.MinQuorumSize() }

// MaxQuorumSize implements quorum.System.
func (p *Partitioned) MaxQuorumSize() int { return p.comp.MaxQuorumSize() }
