// Package htriang implements the hierarchical triangle quorum system, the
// second contribution of the paper (§5).
//
// Processes are arranged in a triangle with k rows, row i holding i
// processes (n = k(k+1)/2). A triangle with j > 1 rows is recursively
// divided into sub-triangle T1 (the top ⌊j/2⌋ rows), a sub-grid G (the
// first ⌊j/2⌋ elements of each remaining row) and sub-triangle T2 (the
// rest). A quorum of a triangle is obtained by one of three methods:
//
//  1. quorum(T1) ∪ quorum(T2)
//  2. quorum(T1) ∪ row-cover(G)
//  3. quorum(T2) ∪ full-line(G)
//
// and a single-row triangle's quorum is its only process. Every quorum of
// the k-row triangle has exactly k elements (≈ √(2n)), the system load is
// 2/(k+1) ≈ √2/√n (almost optimal), and availability tends to 1.
//
// The decomposition tree is exposed as a Spec so that the paper's §5
// "introducing new elements" growth operations — replacing a sub-triangle
// or sub-grid by a slightly larger one — can be expressed and analyzed.
package htriang

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/hgrid"
	"hquorum/internal/quorum"
)

// node is a triangle in the decomposition tree. The sub-grid g is itself a
// hierarchical grid ("a row-cover in G as defined in the h-grid"): with
// flat sub-grids the k=7 failure probabilities of Table 3 do not reproduce,
// with hierarchical ones they match exactly.
type node struct {
	rows int // quorum structure depth; a 1-row triangle is a leaf
	leaf int // process ID when rows == 1
	t1   *node
	t2   *node
	g    *hgrid.Hierarchy
	size int // processes under this node
}

// System is the hierarchical triangle quorum system.
type System struct {
	root     *node
	n        int
	k        int // rows of the canonical triangle; 0 for grown specs
	name     string
	circOnce sync.Once
	circ     *analysis.Circuit
}

var (
	_ quorum.System                = (*System)(nil)
	_ quorum.Enumerator            = (*System)(nil)
	_ analysis.CircuitAvailability = (*System)(nil)
	_ analysis.CacheKeyer          = (*System)(nil)
)

// New returns the canonical h-triang system over a triangle with k rows
// (n = k(k+1)/2 processes). Process IDs are raster order: row r (0-based)
// holds IDs r(r+1)/2 … r(r+1)/2+r.
func New(k int) *System {
	if k < 1 {
		panic(fmt.Sprintf("htriang: invalid row count %d", k))
	}
	n := k * (k + 1) / 2
	id := func(r, c int) int { return r*(r+1)/2 + c }
	// build constructs the node for the sub-triangle whose local row q
	// (0 ≤ q < rows) maps to global row rowOff+q, columns colOff..colOff+q.
	var build func(rows, rowOff, colOff int) *node
	build = func(rows, rowOff, colOff int) *node {
		if rows == 1 {
			return &node{rows: 1, leaf: id(rowOff, colOff), size: 1}
		}
		h1 := rows / 2 // ⌊j/2⌋ rows in T1
		h2 := rows - h1
		t1 := build(h1, rowOff, colOff)
		t2 := build(h2, rowOff+h1, colOff+h1)
		ids := make([][]int, h2)
		for r := range ids {
			ids[r] = make([]int, h1)
			for c := range ids[r] {
				ids[r][c] = id(rowOff+h1+r, colOff+c)
			}
		}
		return &node{rows: rows, t1: t1, t2: t2, g: hgrid.AutoRegion(ids, n),
			size: t1.size + t2.size + h1*h2}
	}
	return &System{root: build(k, 0, 0), n: n, k: k,
		name: fmt.Sprintf("h-triang(%d)", k)}
}

// Name implements quorum.System.
func (s *System) Name() string { return s.name }

// Universe implements quorum.System.
func (s *System) Universe() int { return s.n }

// K returns the number of triangle rows (0 for grown specs).
func (s *System) K() int { return s.k }

// Available reports whether live contains a h-triang quorum.
func (s *System) Available(live bitset.Set) bool {
	return available(s.root, live)
}

func available(t *node, live bitset.Set) bool {
	if t.rows == 1 {
		return live.Contains(t.leaf)
	}
	q1 := available(t.t1, live)
	q2 := available(t.t2, live)
	if q1 && q2 {
		return true
	}
	if q1 && t.g.HasRowCover(live) {
		return true
	}
	return q2 && t.g.HasFullLine(live)
}

// FailureProbability returns the exact failure probability under
// independent crash probability p, via the structural DP: T1, G and T2 are
// disjoint, so conditioning on the grid's joint (row-cover, full-line)
// state and multiplying the sub-triangle availabilities is exact.
func (s *System) FailureProbability(p float64) float64 {
	return 1 - availProb(s.root, 1-p)
}

func availProb(t *node, q float64) float64 {
	if t.rows == 1 {
		return q
	}
	a := availProb(t.t1, q)
	b := availProb(t.t2, q)
	d := t.g.Dist(q)
	// Condition on the grid state:
	//   RC ∧ FL   → need Q1 ∨ Q2
	//   RC only   → need Q1
	//   FL only   → need Q2
	//   neither   → need Q1 ∧ Q2
	return d.Both*(a+b-a*b) + d.RCOnly*a + d.FLOnly*b + d.None()*a*b
}

// Pick returns a random h-triang quorum from live, choosing uniformly among
// the feasible formation methods at every level.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	out := bitset.New(s.n)
	if !pick(s.root, rng, live, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

func pick(t *node, rng *rand.Rand, live bitset.Set, out bitset.Set) bool {
	if t.rows == 1 {
		if !live.Contains(t.leaf) {
			return false
		}
		out.Add(t.leaf)
		return true
	}
	q1 := available(t.t1, live)
	q2 := available(t.t2, live)
	rc := t.g.HasRowCover(live)
	fl := t.g.HasFullLine(live)
	var methods []int
	if q1 && q2 {
		methods = append(methods, 1)
	}
	if q1 && rc {
		methods = append(methods, 2)
	}
	if q2 && fl {
		methods = append(methods, 3)
	}
	if len(methods) == 0 {
		return false
	}
	switch methods[rng.Intn(len(methods))] {
	case 1:
		return pick(t.t1, rng, live, out) && pick(t.t2, rng, live, out)
	case 2:
		if !pick(t.t1, rng, live, out) {
			return false
		}
		rcSet, err := t.g.PickRowCover(rng, live)
		if err != nil {
			return false
		}
		out.UnionWith(rcSet)
		return true
	default:
		if !pick(t.t2, rng, live, out) {
			return false
		}
		flSet, err := t.g.PickFullLine(rng, live)
		if err != nil {
			return false
		}
		out.UnionWith(flSet)
		return true
	}
}

// MinQuorumSize implements quorum.System.
func (s *System) MinQuorumSize() int { min, _ := sizeBounds(s.root); return min }

// MaxQuorumSize implements quorum.System.
func (s *System) MaxQuorumSize() int { _, max := sizeBounds(s.root); return max }

// sizeBounds computes the min/max quorum cardinality of a node. For the
// canonical triangle both equal the number of rows; grown specs may vary.
func sizeBounds(t *node) (min, max int) {
	if t.rows == 1 {
		return 1, 1
	}
	min1, max1 := sizeBounds(t.t1)
	min2, max2 := sizeBounds(t.t2)
	gr, gc := t.g.Rows(), t.g.Cols()
	min = min3(min1+min2, min1+gr, min2+gc)
	max = max3(max1+max2, max1+gr, max2+gc)
	return min, max
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

// EnumerateQuorums yields every h-triang quorum, deduplicated. Intended for
// tests on small triangles.
func (s *System) EnumerateQuorums(fn func(q bitset.Set) bool) {
	seen := make(map[string]bool)
	for _, q := range enumerate(s.root, s.n) {
		k := q.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		if !fn(q) {
			return
		}
	}
}

func enumerate(t *node, n int) []bitset.Set {
	if t.rows == 1 {
		return []bitset.Set{bitset.FromIndices(n, t.leaf)}
	}
	s1 := enumerate(t.t1, n)
	s2 := enumerate(t.t2, n)
	rcs := t.g.RowCovers()
	fls := t.g.FullLines()
	var out []bitset.Set
	out = append(out, cross(s1, s2)...)
	out = append(out, cross(s1, rcs)...)
	out = append(out, cross(s2, fls)...)
	return out
}

func cross(a, b []bitset.Set) []bitset.Set {
	out := make([]bitset.Set, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			out = append(out, x.Union(y))
		}
	}
	return out
}

// Render draws the triangle, labeling the top-level division like Figure 2:
// '1' for sub-triangle 1, 'G' for the sub-grid, '2' for sub-triangle 2
// (or marking the members of q with '#' when q is non-nil).
func (s *System) Render(q *bitset.Set) string {
	if s.k == 0 {
		return fmt.Sprintf("<grown spec with %d processes>\n", s.n)
	}
	region := make([]byte, s.n)
	for i := range region {
		region[i] = '?'
	}
	var walk func(t *node, label byte)
	walk = func(t *node, label byte) {
		if t.rows == 1 {
			region[t.leaf] = label
			return
		}
		walk(t.t1, label)
		walk(t.t2, label)
		for r := 0; r < t.g.Rows(); r++ {
			for c := 0; c < t.g.Cols(); c++ {
				region[t.g.IDAt(r, c)] = label
			}
		}
	}
	if s.root.rows > 1 {
		walk(s.root.t1, '1')
		walk(s.root.t2, '2')
		for r := 0; r < s.root.g.Rows(); r++ {
			for c := 0; c < s.root.g.Cols(); c++ {
				region[s.root.g.IDAt(r, c)] = 'G'
			}
		}
	} else {
		region[s.root.leaf] = '1'
	}
	var b []byte
	id := 0
	for r := 0; r < s.k; r++ {
		for pad := 0; pad < s.k-r-1; pad++ {
			b = append(b, ' ')
		}
		for c := 0; c <= r; c++ {
			if c > 0 {
				b = append(b, ' ')
			}
			switch {
			case q != nil && q.Contains(id):
				b = append(b, '#')
			case q != nil:
				b = append(b, '.')
			default:
				b = append(b, region[id])
			}
			id++
		}
		b = append(b, '\n')
	}
	return string(b)
}

// Gate compiles the system's quorums for cost-aware picks: the three
// formation methods as alternatives at every division. T1, G and T2 are
// disjoint, so each method is a conjunction over disjoint processes.
func (s *System) Gate() *quorum.Gate { return gate(s.root) }

func gate(t *node) *quorum.Gate {
	if t.rows == 1 {
		return quorum.Leaf(t.leaf)
	}
	q1, q2 := gate(t.t1), gate(t.t2)
	return quorum.Any(
		quorum.All(q1, q2),
		quorum.All(q1, t.g.RowCoverGate()),
		quorum.All(q2, t.g.FullLineGate()),
	)
}

// AvailabilityCircuit implements analysis.CircuitAvailability: Gate
// lowered once, on first use; nil when the triangle exceeds 64 processes.
func (s *System) AvailabilityCircuit() *analysis.Circuit {
	s.circOnce.Do(func() { s.circ = s.Gate().Circuit(s.n) })
	return s.circ
}

// CacheKey implements analysis.CacheKeyer: the decomposition tree with its
// leaf IDs and embedded sub-grid structures determines the predicate, so
// canonical triangles and grown specs key consistently.
func (s *System) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "htriang:u%d:", s.n)
	writeNodeKey(&b, s.root)
	return b.String()
}

func writeNodeKey(b *strings.Builder, t *node) {
	if t.rows == 1 {
		fmt.Fprintf(b, "%d", t.leaf)
		return
	}
	b.WriteByte('[')
	writeNodeKey(b, t.t1)
	b.WriteByte('|')
	b.WriteString(t.g.CacheKey())
	b.WriteByte('|')
	writeNodeKey(b, t.t2)
	b.WriteByte(']')
}
