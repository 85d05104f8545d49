// Package hqs implements Kumar's hierarchical quorum consensus (HQS):
// processes are the leaves of a tree, and a quorum is obtained recursively
// by assembling quorums in a majority of the children of every visited
// node. With ternary trees the quorum size is n^0.63 — between the
// majority system's n/2 and the grid systems' √n — with availability close
// to the majority system's.
//
// The paper's Table 2 "HQS (15)" is the two-level tree of five groups of
// three (quorums of 3 groups × 2 processes = 6), and Table 3's "HQS (27)"
// is the complete ternary tree of depth three (quorums of 2³ = 8); both
// reproduce the published failure probabilities exactly.
package hqs

import (
	"fmt"
	"math/rand"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// Shape describes a majority tree: a leaf (no children) is a process, an
// internal node requires quorums in a strict majority of its children.
type Shape struct {
	Children []*Shape
}

// UniformShape returns the complete degree-ary tree of the given depth
// (degree^levels leaves).
func UniformShape(levels, degree int) *Shape {
	if levels == 0 {
		return &Shape{}
	}
	s := &Shape{Children: make([]*Shape, degree)}
	for i := range s.Children {
		s.Children[i] = UniformShape(levels-1, degree)
	}
	return s
}

// GroupedShape returns a two-level tree of groups×size leaves.
func GroupedShape(groups, size int) *Shape {
	s := &Shape{Children: make([]*Shape, groups)}
	for i := range s.Children {
		s.Children[i] = UniformShape(1, size)
	}
	return s
}

// node is a resolved tree node with assigned leaf IDs and cached bounds.
type node struct {
	children []*node
	leaf     int
	need     int // majority threshold: ⌊k/2⌋+1
	minQ     int
	maxQ     int
}

// System is a hierarchical quorum consensus system.
type System struct {
	root  *node
	n     int
	name  string
	avail quorum.Lazy
}

var (
	_ quorum.System     = (*System)(nil)
	_ quorum.Enumerator = (*System)(nil)
)

// New builds an HQS system from a shape. Leaf IDs are assigned in
// depth-first order.
func New(shape *Shape) (*System, error) {
	if shape == nil {
		return nil, fmt.Errorf("hqs: nil shape")
	}
	next := 0
	var build func(s *Shape) *node
	build = func(s *Shape) *node {
		if len(s.Children) == 0 {
			t := &node{leaf: next, minQ: 1, maxQ: 1}
			next++
			return t
		}
		t := &node{need: len(s.Children)/2 + 1}
		mins := make([]int, 0, len(s.Children))
		maxs := make([]int, 0, len(s.Children))
		for _, cs := range s.Children {
			c := build(cs)
			t.children = append(t.children, c)
			mins = append(mins, c.minQ)
			maxs = append(maxs, c.maxQ)
		}
		t.minQ = sumSmallest(mins, t.need)
		t.maxQ = sumLargest(maxs, t.need)
		return t
	}
	return &System{root: build(shape), n: next, name: fmt.Sprintf("hqs(%d)", next)}, nil
}

// Uniform returns the complete degree-ary HQS of the given depth.
func Uniform(levels, degree int) *System {
	s, err := New(UniformShape(levels, degree))
	if err != nil {
		panic(err)
	}
	s.name = fmt.Sprintf("hqs(%d^%d)", degree, levels)
	return s
}

// Grouped returns the two-level HQS of groups×size leaves (the paper's
// 15-process configuration is Grouped(5, 3)).
func Grouped(groups, size int) *System {
	s, err := New(GroupedShape(groups, size))
	if err != nil {
		panic(err)
	}
	s.name = fmt.Sprintf("hqs(%dx%d)", groups, size)
	return s
}

func sumSmallest(v []int, k int) int {
	sortInts(v)
	s := 0
	for i := 0; i < k; i++ {
		s += v[i]
	}
	return s
}

func sumLargest(v []int, k int) int {
	sortInts(v)
	s := 0
	for i := len(v) - k; i < len(v); i++ {
		s += v[i]
	}
	return s
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// Name implements quorum.System.
func (s *System) Name() string { return s.name }

// Universe implements quorum.System.
func (s *System) Universe() int { return s.n }

// Available reports whether live supports a recursive majority quorum.
func (s *System) Available(live bitset.Set) bool {
	return s.Gate().Eval(live)
}

// Gate returns the system's quorums as one formula (compile), built on
// first use; exact availability is its decision diagram.
func (s *System) Gate() *quorum.Gate { return s.avail.Gate(s.compile) }

// compile states the quorums as one formula, Of(⌊k/2⌋+1, children) at
// every node.
func (s *System) compile() *quorum.Gate { return compile(s.root) }

func compile(t *node) *quorum.Gate {
	if t.children == nil {
		return quorum.Leaf(t.leaf)
	}
	kids := make([]*quorum.Gate, len(t.children))
	for i, c := range t.children {
		kids[i] = compile(c)
	}
	return quorum.Of(t.need, kids...)
}

// Pick returns a random quorum from live: Gate.Pick, at every node a
// uniformly random majority-sized subset of the children that can supply
// a quorum.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	out := bitset.New(s.n)
	if !s.Gate().Pick(rng, live, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

// MinQuorumSize implements quorum.System.
func (s *System) MinQuorumSize() int { return s.root.minQ }

// MaxQuorumSize implements quorum.System.
func (s *System) MaxQuorumSize() int { return s.root.maxQ }

// FailureProbability returns the exact failure probability under
// independent crash probability p. Subtrees are disjoint, so the recursive
// majority-of-independent-children DP is exact.
func (s *System) FailureProbability(p float64) float64 {
	return 1 - availProb(s.root, 1-p)
}

func availProb(t *node, q float64) float64 {
	if t.children == nil {
		return q
	}
	k := len(t.children)
	dp := make([]float64, k+1)
	dp[0] = 1
	for _, c := range t.children {
		pc := availProb(c, q)
		for j := k; j >= 1; j-- {
			dp[j] = dp[j]*(1-pc) + dp[j-1]*pc
		}
		dp[0] *= 1 - pc
	}
	sum := 0.0
	for j := t.need; j <= k; j++ {
		sum += dp[j]
	}
	return sum
}

// EnumerateQuorums yields every minimal quorum (each majority-sized child
// subset crossed with the children's quorums). Intended for small trees.
func (s *System) EnumerateQuorums(fn func(q bitset.Set) bool) {
	for _, q := range enumerate(s.root, s.n) {
		if !fn(q) {
			return
		}
	}
}

func enumerate(t *node, n int) []bitset.Set {
	if t.children == nil {
		return []bitset.Set{bitset.FromIndices(n, t.leaf)}
	}
	var out []bitset.Set
	k := len(t.children)
	subset := make([]int, 0, t.need)
	var choose func(start int)
	choose = func(start int) {
		if len(subset) == t.need {
			partial := []bitset.Set{bitset.New(n)}
			for _, ci := range subset {
				var next []bitset.Set
				for _, p := range partial {
					for _, cq := range enumerate(t.children[ci], n) {
						next = append(next, p.Union(cq))
					}
				}
				partial = next
			}
			out = append(out, partial...)
			return
		}
		for i := start; i < k; i++ {
			subset = append(subset, i)
			choose(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	choose(0)
	return out
}
