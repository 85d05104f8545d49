// Package ysys implements the Y quorum system (Kuo–Huang's geometric
// construction): processes form a triangular board with k rows (row i has i
// processes, n = k(k+1)/2, matching the paper's 15- and 28-process
// configurations), adjacent as in the game of Y (each interior process has
// six neighbours). A quorum is a connected set of processes touching all
// three sides of the triangle. The game-of-Y theorem — every two-coloring
// of the board has exactly one player connecting all three sides — gives
// the intersection property: if two Y-sets were disjoint, the complement of
// one would contain the other, putting a winning set in both colors.
package ysys

import (
	"fmt"
	"math/rand"
	"sync"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// System is a Y quorum system over a triangular board.
type System struct {
	k         int
	n         int
	neighbors [][]int
	left      []int
	right     []int
	bottom    []int
	// sides marks, per process, the sides of the board it lies on (a
	// corner lies on two), built once; floods draws Available's scratch
	// (a *flood), so concurrent callers — the enumerator's workers — each
	// get their own.
	sides  []uint8
	floods sync.Pool
	name   string
}

// Side bits of System.sides.
const (
	sideLeft uint8 = 1 << iota
	sideRight
	sideBottom
	allSides = sideLeft | sideRight | sideBottom
)

// flood is one component search's scratch: the processes seen and the
// depth-first stack.
type flood struct {
	seen  bitset.Set
	stack []int
}

var _ quorum.System = (*System)(nil)

// New returns the Y system on a board with k rows.
func New(k int) *System {
	if k < 1 {
		panic(fmt.Sprintf("ysys: invalid row count %d", k))
	}
	n := k * (k + 1) / 2
	id := func(r, c int) int { return r*(r+1)/2 + c }
	s := &System{k: k, n: n, neighbors: make([][]int, n), sides: make([]uint8, n),
		name: fmt.Sprintf("y(%d)", n)}
	link := func(a, b int) {
		s.neighbors[a] = append(s.neighbors[a], b)
		s.neighbors[b] = append(s.neighbors[b], a)
	}
	for r := 0; r < k; r++ {
		for c := 0; c <= r; c++ {
			if c < r {
				link(id(r, c), id(r, c+1)) // same row
			}
			if r+1 < k {
				link(id(r, c), id(r+1, c))   // down-left
				link(id(r, c), id(r+1, c+1)) // down-right
			}
			if c == 0 {
				s.left = append(s.left, id(r, c))
				s.sides[id(r, c)] |= sideLeft
			}
			if c == r {
				s.right = append(s.right, id(r, c))
				s.sides[id(r, c)] |= sideRight
			}
			if r == k-1 {
				s.bottom = append(s.bottom, id(r, c))
				s.sides[id(r, c)] |= sideBottom
			}
		}
	}
	s.floods.New = func() any { return &flood{seen: bitset.New(n), stack: make([]int, 0, n)} }
	return s
}

// Name implements quorum.System.
func (s *System) Name() string { return s.name }

// Universe implements quorum.System.
func (s *System) Universe() int { return s.n }

// K returns the number of board rows.
func (s *System) K() int { return s.k }

// Available reports whether some connected component of live touches all
// three sides of the board. Such a component touches the left side, so
// only the components of live left-side processes are flooded, on pooled
// scratch: Available is safe for concurrent use and allocates nothing (a
// process is pushed at most once, so the stack never outgrows its n).
func (s *System) Available(live bitset.Set) bool {
	f := s.floods.Get().(*flood)
	defer s.floods.Put(f)
	f.seen.Clear()
	for _, start := range s.left {
		if !live.Contains(start) || f.seen.Contains(start) {
			continue
		}
		f.seen.Add(start)
		stack := append(f.stack[:0], start)
		var touched uint8
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if touched |= s.sides[v]; touched == allSides {
				return true
			}
			for _, w := range s.neighbors[v] {
				if live.Contains(w) && !f.seen.Contains(w) {
					f.seen.Add(w)
					stack = append(stack, w)
				}
			}
		}
	}
	return false
}

// TransversalCounts returns the exact transversal counts from the
// decision diagram of "one live component touches all three sides"
// (quorum.ComponentCounts).
func (s *System) TransversalCounts() ([]uint64, error) {
	return quorum.ComponentCounts(s.neighbors, [][]int{s.left, s.right, s.bottom})
}

// component returns the connected component of live containing start.
func (s *System) component(live bitset.Set, start int) bitset.Set {
	comp := bitset.New(s.n)
	comp.Add(start)
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range s.neighbors[v] {
			if live.Contains(w) && !comp.Contains(w) {
				comp.Add(w)
				stack = append(stack, w)
			}
		}
	}
	return comp
}

func (s *System) touchesAllSides(set bitset.Set) bool {
	var touched uint8
	set.ForEach(func(v int) { touched |= s.sides[v] })
	return touched == allSides
}

// Pick returns a minimal Y-set from live: the live component touching all
// three sides, pruned in random order until minimal.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	visited := bitset.New(s.n)
	var base bitset.Set
	found := false
	for start := 0; start < s.n && !found; start++ {
		if !live.Contains(start) || visited.Contains(start) {
			continue
		}
		comp := s.component(live, start)
		visited.UnionWith(comp)
		if s.touchesAllSides(comp) {
			base = comp
			found = true
		}
	}
	if !found {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	order := base.Indices()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// Prune against the monotone "still contains a Y-set" predicate; a
	// single pass then yields a set that is itself a minimal Y-set. (The
	// non-monotone "is exactly a Y-set" test would leave stranded vertices
	// behind.)
	for _, v := range order {
		base.Remove(v)
		if !s.Available(base) {
			base.Add(v)
		}
	}
	return base, nil
}

// isYSet reports whether set itself (not a superset) is connected and
// touches all three sides.
func (s *System) isYSet(set bitset.Set) bool {
	start := -1
	set.ForEach(func(v int) {
		if start == -1 {
			start = v
		}
	})
	if start == -1 {
		return false
	}
	comp := s.component(set, start)
	return comp.Equal(set) && s.touchesAllSides(comp)
}

// MinQuorumSize implements quorum.System: a full side (k processes).
func (s *System) MinQuorumSize() int { return s.k }

// MaxQuorumSize implements quorum.System. Minimal Y-sets can be larger than
// a side; the largest the paper reports for 28 processes is 11. The exact
// maximum of the minimal quorums is computed on demand for small boards and
// bounded by n otherwise.
func (s *System) MaxQuorumSize() int {
	if s.n > 22 {
		return s.n
	}
	max := 0
	s.EnumerateQuorums(func(q bitset.Set) bool {
		if c := q.Count(); c > max {
			max = c
		}
		return true
	})
	return max
}

// EnumerateQuorums yields every minimal Y-set. Exponential; intended for
// boards up to k=6.
func (s *System) EnumerateQuorums(fn func(q bitset.Set) bool) {
	if s.n > 22 {
		panic(fmt.Sprintf("ysys: enumeration over %d processes is infeasible", s.n))
	}
	for mask := uint64(1); mask < uint64(1)<<uint(s.n); mask++ {
		set := bitset.FromWord(s.n, mask)
		if !s.isYSet(set) {
			continue
		}
		minimal := true
		for v := 0; v < s.n && minimal; v++ {
			if !set.Contains(v) {
				continue
			}
			set.Remove(v)
			if s.Available(set) {
				minimal = false
			}
			set.Add(v)
		}
		if !minimal {
			continue
		}
		if !fn(set) {
			return
		}
	}
}
