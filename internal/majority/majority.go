// Package majority implements voting-based quorum systems (Gifford '79):
// a quorum is any set of nodes whose combined votes reach a threshold
// exceeding half of the total. With one vote per node this is the classic
// majority system — the most available coterie for p < 1/2 (Proposition
// 3.2) but with O(n) quorums.
//
// For even universes the package also provides the tie-breaking variant the
// paper's tables use ("Majority (28)"): one distinguished node carries two
// votes so the total is odd, the system is self-dual, and F½ = ½ exactly.
package majority

import (
	"fmt"
	"math/rand"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// System is a voting quorum system: one vote per node, or two for node 0
// of the tie-break variant.
type System struct {
	name      string
	weights   []int
	threshold int // a set is a quorum iff its votes are >= threshold
	minSize   int
	maxSize   int
	avail     quorum.Lazy
}

var (
	_ quorum.System     = (*System)(nil)
	_ quorum.Enumerator = (*System)(nil)
)

// New returns the majority quorum system over n nodes (one vote each,
// threshold ⌊n/2⌋+1). n must be positive.
func New(n int) *System {
	if n <= 0 {
		panic(fmt.Sprintf("majority: invalid universe %d", n))
	}
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	m := n/2 + 1
	return &System{
		name:      fmt.Sprintf("majority(%d)", n),
		weights:   weights,
		threshold: m,
		minSize:   m,
		maxSize:   m,
	}
}

// NewTieBreak returns the majority system over an even universe n where
// node 0 holds two votes (total n+1, threshold reached at n/2+1 votes).
// Minimal quorums have n/2 nodes (including node 0) or n/2+1 nodes.
func NewTieBreak(n int) *System {
	if n <= 0 || n%2 != 0 {
		panic(fmt.Sprintf("majority: tie-break variant needs even universe, got %d", n))
	}
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = 2
	return &System{
		name:      fmt.Sprintf("majority-tb(%d)", n),
		weights:   weights,
		threshold: n/2 + 1,
		minSize:   n / 2,
		maxSize:   n/2 + 1,
	}
}

// Name implements quorum.System.
func (s *System) Name() string { return s.name }

// Universe implements quorum.System.
func (s *System) Universe() int { return len(s.weights) }

// Available reports whether the live set musters a quorum of votes.
func (s *System) Available(live bitset.Set) bool {
	return s.Gate().Eval(live)
}

// Gate returns the system's quorums as one formula (compile), built on
// first use; exact availability is its decision diagram.
func (s *System) Gate() *quorum.Gate { return s.avail.Gate(s.compile) }

// compile states the quorums as one formula over distinct leaves: any
// threshold processes, or for the tie-break variant node 0 with n/2−1 of
// the rest or n/2+1 of the rest.
func (s *System) compile() *quorum.Gate {
	n := len(s.weights)
	leaves := make([]*quorum.Gate, n)
	for id := range leaves {
		leaves[id] = quorum.Leaf(id)
	}
	if s.weights[0] == 1 {
		return quorum.Of(s.threshold, leaves...)
	}
	rest := leaves[1:]
	return quorum.Any(quorum.All(leaves[0], quorum.Of(n/2-1, rest...)), quorum.Of(n/2+1, rest...))
}

// Pick returns a minimal quorum drawn from live by Gate.Pick: threshold
// live processes chosen uniformly, or for the tie-break variant one of
// its two ways to reach the vote threshold, then the processes.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	out := bitset.New(len(s.weights))
	if !s.Gate().Pick(rng, live, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

// MinQuorumSize implements quorum.System.
func (s *System) MinQuorumSize() int { return s.minSize }

// MaxQuorumSize implements quorum.System.
func (s *System) MaxQuorumSize() int { return s.maxSize }

// FailureProbability returns the exact failure probability under
// independent crash probability p, via a dynamic program over the total
// surviving votes (O(n·W) for total vote weight W).
func (s *System) FailureProbability(p float64) float64 {
	q := 1 - p
	total := 0
	for _, w := range s.weights {
		total += w
	}
	dist := make([]float64, total+1)
	dist[0] = 1
	maxVotes := 0
	for _, w := range s.weights {
		for v := maxVotes; v >= 0; v-- {
			dist[v+w] += dist[v] * q
			dist[v] *= p
		}
		maxVotes += w
	}
	f := 0.0
	for v := 0; v < s.threshold; v++ {
		f += dist[v]
	}
	return f
}

// EnumerateQuorums yields every minimal quorum. It panics for universes
// beyond 22 nodes (4M masks); the paper's configurations are far smaller.
func (s *System) EnumerateQuorums(fn func(q bitset.Set) bool) {
	n := len(s.weights)
	if n > 22 {
		panic(fmt.Sprintf("majority: enumeration over %d nodes is infeasible", n))
	}
	for mask := uint64(1); mask < uint64(1)<<uint(n); mask++ {
		votes := 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				votes += s.weights[i]
			}
		}
		if votes < s.threshold {
			continue
		}
		minimal := true
		for i := 0; i < n && minimal; i++ {
			if mask&(1<<uint(i)) != 0 && votes-s.weights[i] >= s.threshold {
				minimal = false
			}
		}
		if !minimal {
			continue
		}
		if !fn(bitset.FromWord(n, mask)) {
			return
		}
	}
}
