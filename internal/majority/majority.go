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
	"slices"
	"sort"
	"strings"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// System is a weighted-voting quorum system.
type System struct {
	name      string
	weights   []int
	threshold int // a set is a quorum iff its votes are >= threshold
	minSize   int
	maxSize   int
	avail     quorum.Lazy
}

var (
	_ quorum.System                = (*System)(nil)
	_ quorum.Enumerator            = (*System)(nil)
	_ analysis.CircuitAvailability = (*System)(nil)
	_ analysis.CacheKeyer          = (*System)(nil)
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

// NewWeighted returns a voting system with arbitrary positive weights.
// threshold must exceed half the total votes so that quorums intersect.
func NewWeighted(weights []int, threshold int) (*System, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("majority: empty weight vector")
	}
	total := 0
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("majority: weight[%d] = %d must be positive", i, w)
		}
		total += w
	}
	if 2*threshold <= total {
		return nil, fmt.Errorf("majority: threshold %d does not exceed half of total votes %d", threshold, total)
	}
	if threshold > total {
		return nil, fmt.Errorf("majority: threshold %d exceeds total votes %d", threshold, total)
	}
	s := &System{
		name:      fmt.Sprintf("voting(%d,t=%d)", len(weights), threshold),
		weights:   append([]int(nil), weights...),
		threshold: threshold,
	}
	s.minSize, s.maxSize = s.sizeBounds()
	return s, nil
}

// sizeBounds computes the smallest and largest minimal-quorum cardinality.
// Exact for n ≤ 22 (by minimal-quorum enumeration); otherwise it uses the
// descending-weights greedy for the minimum and the ascending-weights greedy
// with redundancy pruning for the maximum.
func (s *System) sizeBounds() (min, max int) {
	n := len(s.weights)
	if n <= 22 {
		min, max = n+1, 0
		s.EnumerateQuorums(func(q bitset.Set) bool {
			c := q.Count()
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
			return true
		})
		return min, max
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.weights[idx[a]] > s.weights[idx[b]] })
	sum := 0
	for i, id := range idx {
		sum += s.weights[id]
		if sum >= s.threshold {
			min = i + 1
			break
		}
	}
	sum = 0
	taken := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		taken = append(taken, idx[i])
		sum += s.weights[idx[i]]
		if sum >= s.threshold {
			break
		}
	}
	// Prune redundant members (ascending greedy can overshoot).
	for i := 0; i < len(taken); {
		if sum-s.weights[taken[i]] >= s.threshold {
			sum -= s.weights[taken[i]]
			taken = append(taken[:i], taken[i+1:]...)
		} else {
			i++
		}
	}
	return min, len(taken)
}

// Name implements quorum.System.
func (s *System) Name() string { return s.name }

// Universe implements quorum.System.
func (s *System) Universe() int { return len(s.weights) }

// Available reports whether the live set musters a quorum of votes.
func (s *System) Available(live bitset.Set) bool {
	return s.avail.Gate(len(s.weights), s.compile).Eval(live)
}

// AvailabilityCircuit implements analysis.CircuitAvailability: the vote
// gate lowered over the universe; nil beyond 64 nodes.
func (s *System) AvailabilityCircuit() *analysis.Circuit {
	return s.avail.Circuit(len(s.weights), s.compile)
}

// compile states the quorums as one formula: at least threshold of the
// votes, each process a leaf repeated once per vote (Eval and the
// circuit's threshold unroll count repeated kids). It serves availability
// only; nothing prices it with Cheapest.
func (s *System) compile() *quorum.Gate {
	var votes []*quorum.Gate
	for id, w := range s.weights {
		for range w {
			votes = append(votes, quorum.Leaf(id))
		}
	}
	return quorum.Of(s.threshold, votes...)
}

// CacheKey implements analysis.CacheKeyer.
func (s *System) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vote:n%d:t%d:", len(s.weights), s.threshold)
	if slices.Max(s.weights) == 1 { // one vote each (weights are positive)
		b.WriteString("u")
	} else {
		for i, w := range s.weights {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", w)
		}
	}
	return b.String()
}

// Pick returns a minimal quorum drawn from live: nodes are sampled in random
// order until the threshold is reached, then redundant members are pruned.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	if !s.Available(live) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	order := live.Indices()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	q := bitset.New(len(s.weights))
	votes := 0
	for _, i := range order {
		q.Add(i)
		votes += s.weights[i]
		if votes >= s.threshold {
			break
		}
	}
	for _, i := range order {
		if q.Contains(i) && votes-s.weights[i] >= s.threshold {
			q.Remove(i)
			votes -= s.weights[i]
		}
	}
	return q, nil
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
