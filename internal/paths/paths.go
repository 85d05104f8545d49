// Package paths implements the Naor–Wool Paths quorum system on the
// centered (triangulated) ℓ-grid: the vertices are the (ℓ+1)² integer
// lattice points of an ℓ×ℓ square together with the ℓ² cell centers
// (n = 2ℓ²+2ℓ+1; ℓ=2 gives the paper's 13, ℓ=3 its 25), and each center is
// adjacent to the four corners of its cell while lattice points are
// adjacent along grid edges. A quorum is the union of a left–right vertex
// path and a top–bottom vertex path. Planarity guarantees the intersection
// property: two crossing paths in a planar straight-line graph must share a
// vertex.
package paths

import (
	"fmt"
	"math/rand"
	"sync"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// System is a Paths quorum system over the centered ℓ-grid.
type System struct {
	ell       int
	n         int
	neighbors [][]int
	left      []int // vertex IDs on each boundary
	right     []int
	top       []int
	bottom    []int
	// rightSet and bottomSet are the crossings' targets as sets, built
	// once; floods draws Available's scratch (a *flood), so concurrent
	// callers — the enumerator's workers — each get their own.
	rightSet  bitset.Set
	bottomSet bitset.Set
	floods    sync.Pool
	name      string
}

// flood is one connectivity search's scratch: the vertices seen and the
// depth-first stack.
type flood struct {
	seen  bitset.Set
	stack []int
}

var _ quorum.System = (*System)(nil)

// New returns the Paths system for grid parameter ℓ ≥ 1.
func New(ell int) *System {
	if ell < 1 {
		panic(fmt.Sprintf("paths: invalid grid parameter %d", ell))
	}
	corners := (ell + 1) * (ell + 1)
	n := corners + ell*ell
	s := &System{ell: ell, n: n, name: fmt.Sprintf("paths(%d)", n)}
	corner := func(x, y int) int { return y*(ell+1) + x }
	center := func(x, y int) int { return corners + y*ell + x }
	s.neighbors = make([][]int, n)
	link := func(a, b int) {
		s.neighbors[a] = append(s.neighbors[a], b)
		s.neighbors[b] = append(s.neighbors[b], a)
	}
	for y := 0; y <= ell; y++ {
		for x := 0; x <= ell; x++ {
			if x < ell {
				link(corner(x, y), corner(x+1, y))
			}
			if y < ell {
				link(corner(x, y), corner(x, y+1))
			}
		}
	}
	for y := 0; y < ell; y++ {
		for x := 0; x < ell; x++ {
			c := center(x, y)
			link(c, corner(x, y))
			link(c, corner(x+1, y))
			link(c, corner(x, y+1))
			link(c, corner(x+1, y+1))
		}
	}
	for y := 0; y <= ell; y++ {
		s.left = append(s.left, corner(0, y))
		s.right = append(s.right, corner(ell, y))
	}
	for x := 0; x <= ell; x++ {
		s.top = append(s.top, corner(x, 0))
		s.bottom = append(s.bottom, corner(x, ell))
	}
	s.rightSet = bitset.FromIndices(n, s.right...)
	s.bottomSet = bitset.FromIndices(n, s.bottom...)
	s.floods.New = func() any { return &flood{seen: bitset.New(n), stack: make([]int, 0, n)} }
	return s
}

// Name implements quorum.System.
func (s *System) Name() string { return s.name }

// Universe implements quorum.System.
func (s *System) Universe() int { return s.n }

// Ell returns the grid parameter.
func (s *System) Ell() int { return s.ell }

// connected reports whether live contains a path from some vertex of src to
// some vertex of dst. It floods on pooled scratch and allocates nothing:
// a vertex is pushed at most once, so the stack never outgrows its n.
func (s *System) connected(live bitset.Set, src []int, dst bitset.Set) bool {
	f := s.floods.Get().(*flood)
	defer s.floods.Put(f)
	f.seen.Clear()
	stack := f.stack[:0]
	for _, v := range src {
		if live.Contains(v) && !f.seen.Contains(v) {
			f.seen.Add(v)
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if dst.Contains(v) {
			return true
		}
		for _, w := range s.neighbors[v] {
			if live.Contains(w) && !f.seen.Contains(w) {
				f.seen.Add(w)
				stack = append(stack, w)
			}
		}
	}
	return false
}

// Available reports whether live contains both a left–right and a
// top–bottom path. It is safe for concurrent use and allocates nothing.
func (s *System) Available(live bitset.Set) bool {
	return s.connected(live, s.left, s.rightSet) && s.connected(live, s.top, s.bottomSet)
}

// TransversalCounts returns the exact transversal counts from the
// decision diagram of the two crossings (quorum.ComponentCounts).
func (s *System) TransversalCounts() ([]uint64, error) {
	return quorum.ComponentCounts(s.neighbors, [][]int{s.left, s.right}, [][]int{s.top, s.bottom})
}

// Pick returns a quorum from live: a random shortest-ish left–right path
// plus a random top–bottom path, pruned to a minimal union.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	lr := s.randomPath(rng, live, s.left, s.rightSet)
	tb := s.randomPath(rng, live, s.top, s.bottomSet)
	if lr == nil || tb == nil {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	out := bitset.New(s.n)
	for _, v := range lr {
		out.Add(v)
	}
	for _, v := range tb {
		out.Add(v)
	}
	// Prune vertices whose removal preserves both connections.
	order := out.Indices()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, v := range order {
		out.Remove(v)
		if !s.Available(out) {
			out.Add(v)
		}
	}
	return out, nil
}

// randomPath returns the vertices of a BFS path from src to dst through
// live vertices, with neighbor order randomized, or nil.
func (s *System) randomPath(rng *rand.Rand, live bitset.Set, src []int, dst bitset.Set) []int {
	prev := make([]int, s.n)
	for i := range prev {
		prev[i] = -2
	}
	var queue []int
	for _, v := range src {
		if live.Contains(v) {
			prev[v] = -1
			queue = append(queue, v)
		}
	}
	rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dst.Contains(v) {
			var path []int
			for u := v; u != -1; u = prev[u] {
				path = append(path, u)
			}
			return path
		}
		nbrs := append([]int(nil), s.neighbors[v]...)
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
		for _, w := range nbrs {
			if live.Contains(w) && prev[w] == -2 {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// MinQuorumSize implements quorum.System: a monotone staircase path from
// the top-left corner to the bottom-right corner crosses left–right and
// top–bottom simultaneously using 2ℓ+1 vertices.
func (s *System) MinQuorumSize() int { return 2*s.ell + 1 }

// MaxQuorumSize implements quorum.System. Minimal path quorums have no
// tight size bound (snake-shaped paths can be long), which is why Table 4
// prints "-" for the Paths maximum; n is returned as the safe bound.
func (s *System) MaxQuorumSize() int { return s.n }
