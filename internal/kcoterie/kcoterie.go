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
// Both give the analyzer a word fast path (analysis.WordAvailability) up to
// 64 processes. A partition takes any sub-coterie: one without a word path
// of its own — the h-grid family, whose fast path is a circuit, or a
// quorum.Composite — answers its slice of the word through Available.
package kcoterie

import (
	"fmt"
	"math/rand"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// KMajority is the threshold k-coterie: every set of ⌊n/(k+1)⌋+1
// processes is a quorum. Any k+1 quorums hold (k+1)·q > n process slots,
// so two share a process; and k·q ≤ n, so k disjoint quorums exist.
type KMajority struct {
	n, k, q int
}

var _ quorum.System = (*KMajority)(nil)

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
func (s *KMajority) Available(live bitset.Set) bool { return live.Count() >= s.q }

// AvailableK reports whether j pairwise disjoint quorums fit in live.
func (s *KMajority) AvailableK(live bitset.Set, j int) bool {
	return live.Count() >= j*s.q
}

// Pick implements quorum.System.
func (s *KMajority) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	alive := live.Indices()
	if len(alive) < s.q {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	out := bitset.New(s.n)
	for _, id := range alive[:s.q] {
		out.Add(id)
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
// which intersect; one quorum per slice gives k disjoint ones.
type Partitioned struct {
	subs     []quorum.System
	offsets  []int
	n        int
	wordSubs []wordSub // per-slice word views (nil when n > 64)
}

var _ quorum.System = (*Partitioned)(nil)

// NewPartitioned builds the partition k-coterie from k ≥ 1 sub-coteries.
func NewPartitioned(subs ...quorum.System) (*Partitioned, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("kcoterie: no sub-coteries")
	}
	p := &Partitioned{subs: subs, offsets: make([]int, len(subs))}
	for i, sub := range subs {
		if sub == nil {
			return nil, fmt.Errorf("kcoterie: nil sub-coterie %d", i)
		}
		p.offsets[i] = p.n
		p.n += sub.Universe()
	}
	if p.n <= 64 {
		p.wordSubs = make([]wordSub, len(subs))
		for i, sub := range subs {
			fast, _ := sub.(analysis.WordAvailability)
			p.wordSubs[i] = wordSub{
				shift: uint(p.offsets[i]),
				mask:  uint64(1)<<uint(sub.Universe()) - 1,
				fast:  fast,
			}
		}
	}
	return p, nil
}

// Name implements quorum.System.
func (p *Partitioned) Name() string {
	return fmt.Sprintf("partitioned-%d-coterie(%d)", len(p.subs), p.n)
}

// Universe implements quorum.System.
func (p *Partitioned) Universe() int { return p.n }

// K returns the concurrency level (the number of partitions).
func (p *Partitioned) K() int { return len(p.subs) }

// slice extracts sub-coterie i's live view.
func (p *Partitioned) slice(live bitset.Set, i int) bitset.Set {
	sub := bitset.New(p.subs[i].Universe())
	for j := 0; j < p.subs[i].Universe(); j++ {
		if live.Contains(p.offsets[i] + j) {
			sub.Add(j)
		}
	}
	return sub
}

// Available implements quorum.System (some slice has a quorum).
func (p *Partitioned) Available(live bitset.Set) bool {
	for i := range p.subs {
		if p.subs[i].Available(p.slice(live, i)) {
			return true
		}
	}
	return false
}

// AvailableK reports whether j pairwise disjoint quorums exist in live
// (at least j slices individually available).
func (p *Partitioned) AvailableK(live bitset.Set, j int) bool {
	count := 0
	for i := range p.subs {
		if p.subs[i].Available(p.slice(live, i)) {
			count++
			if count >= j {
				return true
			}
		}
	}
	return false
}

// Pick implements quorum.System: a quorum from a uniformly random
// available slice.
func (p *Partitioned) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	var candidates []int
	for i := range p.subs {
		if p.subs[i].Available(p.slice(live, i)) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	i := candidates[rng.Intn(len(candidates))]
	subQ, err := p.subs[i].Pick(rng, p.slice(live, i))
	if err != nil {
		return bitset.Set{}, err
	}
	out := bitset.New(p.n)
	subQ.ForEach(func(j int) { out.Add(p.offsets[i] + j) })
	return out, nil
}

// MinQuorumSize implements quorum.System.
func (p *Partitioned) MinQuorumSize() int {
	min := p.subs[0].MinQuorumSize()
	for _, sub := range p.subs[1:] {
		if m := sub.MinQuorumSize(); m < min {
			min = m
		}
	}
	return min
}

// MaxQuorumSize implements quorum.System.
func (p *Partitioned) MaxQuorumSize() int {
	max := 0
	for _, sub := range p.subs {
		if m := sub.MaxQuorumSize(); m > max {
			max = m
		}
	}
	return max
}
