package quorum

import (
	"errors"
	"fmt"
)

// ErrTooLarge reports a formula whose exact transversal counts are out of
// reach: a universe over 64 processes, a leaf outside the universe, or a
// decision diagram past maxDiagramNodes.
var ErrTooLarge = errors.New("quorum: no exact diagram")

// maxDiagramNodes caps a diagram. At n = 64 a node's count vector is up to
// 65 words, so the cap bounds the counts at about 140 MB; Paths(25), the
// largest diagram of this repository's tables and tests, has 109,683
// nodes, and the 7×9 h-T-grid, the largest gate's, 29,523.
const maxDiagramNodes = 1 << 18

// node is a decision node: process v's liveness chooses hi (live) or lo
// (crashed). The terminals 0 (false) and 1 (true) sit at v = n.
type node struct {
	v, lo, hi int32
}

// diagram is a reduced ordered binary decision diagram over n processes,
// variables in process-ID order (Bryant 1986). Nodes are appended after
// their children, so index order is bottom-up.
type diagram struct {
	n       int
	limit   int
	nodes   []node
	unique  map[node]int32
	and, or map[[2]int32]int32
	memo    map[*Gate]int32
}

// abort is the panic value that unwinds a build with its error.
type abort struct{ err error }

// TransversalCounts returns the vector a over n processes where a[i] is the
// number of size-i sets whose crash leaves the formula false — the aᵢ of
// the paper's Proposition 3.1, Fₚ = Σ aᵢ pⁱ qⁿ⁻ⁱ. It compiles the formula to
// a decision diagram and counts in one bottom-up pass; uint64 is exact
// because C(64, 32) < 2⁶⁴. The error wraps ErrTooLarge when n exceeds 64,
// a leaf lies outside [0, n), or the diagram outgrows its node cap.
func (g *Gate) TransversalCounts(n int) ([]uint64, error) {
	return g.transversalCounts(n, maxDiagramNodes)
}

func (g *Gate) transversalCounts(n, limit int) ([]uint64, error) {
	return compile(n, limit, func(d *diagram) int32 { return d.build(g) })
}

// ComponentCounts is TransversalCounts for a system whose availability is
// connectivity in a graph of its processes: neighbors[v] lists process v's
// neighbours, and the system is available when, for each group of sides,
// one live component touches every side in the group (Paths is
// {left, right}, {top, bottom}; Y is {left, right, bottom}). For each side
// S of a group but the last, reachability from S is the least fixpoint of
// r[v] = x_v ∧ (v ∈ S ∨ ⋁_{u∈N(v)} r[u]), iterated until no node changes;
// the group holds when a live process of the last side reaches every other
// side. The error wraps ErrTooLarge as TransversalCounts' does.
func ComponentCounts(neighbors [][]int, groups ...[][]int) ([]uint64, error) {
	return compile(len(neighbors), maxDiagramNodes, func(d *diagram) int32 {
		return d.components(neighbors, groups)
	})
}

// components builds ComponentCounts' function.
func (d *diagram) components(neighbors [][]int, groups [][][]int) int32 {
	root := int32(1)
	for _, sides := range groups {
		last := sides[len(sides)-1]
		reach := make([][]int32, len(sides)-1)
		for i, side := range sides[:len(sides)-1] {
			reach[i] = d.reach(neighbors, side)
		}
		group := int32(0)
		for _, v := range last {
			r := d.mk(int32(v), 0, 1)
			for _, rs := range reach {
				r = d.apply(false, r, rs[v])
			}
			group = d.apply(true, group, r)
		}
		root = d.apply(false, root, group)
	}
	return root
}

// reach returns, per process, the function "live and connected through
// live processes to a live process of side".
func (d *diagram) reach(neighbors [][]int, side []int) []int32 {
	r := make([]int32, d.n)
	in := make([]bool, d.n)
	for _, v := range side {
		in[v] = true
		r[v] = d.mk(int32(v), 0, 1)
	}
	for changed := true; changed; {
		changed = false
		for v, ns := range neighbors {
			if in[v] {
				continue
			}
			near := int32(0)
			for _, u := range ns {
				near = d.apply(true, near, r[u])
			}
			if x := d.apply(false, d.mk(int32(v), 0, 1), near); x != r[v] {
				r[v], changed = x, true
			}
		}
	}
	return r
}

// compile builds a diagram over n processes with build and counts its
// root, returning the error of a build that aborts.
func compile(n, limit int, build func(*diagram) int32) (counts []uint64, err error) {
	if n < 0 || n > 64 {
		return nil, fmt.Errorf("%w: %d processes, at most 64", ErrTooLarge, n)
	}
	d := &diagram{
		n:      n,
		limit:  limit,
		nodes:  []node{{v: int32(n)}, {v: int32(n)}},
		unique: make(map[node]int32),
		and:    make(map[[2]int32]int32),
		or:     make(map[[2]int32]int32),
		memo:   make(map[*Gate]int32),
	}
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(abort)
			if !ok {
				panic(r)
			}
			counts, err = nil, a.err
		}
	}()
	return d.count(build(d)), nil
}

// mk returns the node (v, lo, hi), reduced and unique.
func (d *diagram) mk(v, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	k := node{v, lo, hi}
	if u, ok := d.unique[k]; ok {
		return u
	}
	if len(d.nodes) >= d.limit {
		panic(abort{fmt.Errorf("%w: past %d nodes", ErrTooLarge, d.limit)})
	}
	u := int32(len(d.nodes))
	d.nodes = append(d.nodes, k)
	d.unique[k] = u
	return u
}

// apply returns a ∧ b, or a ∨ b when or is set.
func (d *diagram) apply(or bool, a, b int32) int32 {
	absorb, unit, cache := int32(0), int32(1), d.and
	if or {
		absorb, unit, cache = 1, 0, d.or
	}
	switch {
	case a == absorb || b == absorb:
		return absorb
	case a == unit || a == b:
		return b
	case b == unit:
		return a
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := cache[[2]int32{a, b}]; ok {
		return r
	}
	na, nb := d.nodes[a], d.nodes[b]
	v := min(na.v, nb.v)
	alo, ahi, blo, bhi := a, a, b, b
	if na.v == v {
		alo, ahi = na.lo, na.hi
	}
	if nb.v == v {
		blo, bhi = nb.lo, nb.hi
	}
	r := d.mk(v, d.apply(or, alo, blo), d.apply(or, ahi, bhi))
	if len(cache) >= d.limit {
		// The computed table is only a cache: start it over rather than
		// let it outgrow the node cap.
		cache = make(map[[2]int32]int32)
		if or {
			d.or = cache
		} else {
			d.and = cache
		}
	}
	cache[[2]int32{a, b}] = r
	return r
}

// build compiles g: a conjunction or disjunction folds its kids, any other
// threshold unrolls "at least t of the last i kids", and a subformula
// that appears twice is built once. Kids go last to first: constructions
// list them in process-ID order, so each kid joins above what is built.
func (d *diagram) build(g *Gate) int32 {
	if g.id >= 0 {
		if g.id >= d.n {
			panic(abort{fmt.Errorf("%w: leaf %d outside [0, %d)", ErrTooLarge, g.id, d.n)})
		}
		return d.mk(int32(g.id), 0, 1)
	}
	if r, ok := d.memo[g]; ok {
		return r
	}
	var r int32
	switch {
	case g.need > len(g.kids):
		r = 0
	case g.need == len(g.kids) || g.need == 1:
		or := g.need != len(g.kids)
		r = 1
		if or {
			r = 0
		}
		for i := len(g.kids) - 1; i >= 0; i-- {
			r = d.apply(or, d.build(g.kids[i]), r)
		}
	default:
		// at[t]: at least t of the kids built so far hold.
		at := make([]int32, g.need+1)
		at[0] = 1
		for i := len(g.kids) - 1; i >= 0; i-- {
			x := d.build(g.kids[i])
			for t := g.need; t >= 1; t-- {
				at[t] = d.apply(true, at[t], d.apply(false, x, at[t-1]))
			}
		}
		r = at[g.need]
	}
	d.memo[g] = r
	return r
}

// count returns, for the function rooted at root, the number of
// assignments that make it false by their number of crashed processes.
// A node's vector ranges over its own variable and those below; an edge
// that skips s variables spreads its child's vector by C(s, j).
func (d *diagram) count(root int32) []uint64 {
	n := d.n
	var choose [65][65]uint64
	for i := 0; i <= n; i++ {
		choose[i][0] = 1
		for j := 1; j <= i; j++ {
			choose[i][j] = choose[i-1][j-1] + choose[i-1][j]
		}
	}
	// Only the nodes under root get a vector.
	reach := make([]bool, len(d.nodes))
	reach[root] = true
	for u := len(d.nodes) - 1; u >= 2; u-- {
		if reach[u] {
			reach[d.nodes[u].lo], reach[d.nodes[u].hi] = true, true
		}
	}
	vec := make([][]uint64, len(d.nodes))
	vec[0], vec[1] = []uint64{1}, []uint64{0}
	// lift adds child c's vector, seen from variable v, to out shifted by
	// shift zeros.
	lift := func(out []uint64, c int32, v int32, shift int) {
		skip := int(d.nodes[c].v - v)
		for i, a := range vec[c] {
			if a == 0 {
				continue
			}
			for j := 0; j <= skip; j++ {
				out[i+j+shift] += a * choose[skip][j]
			}
		}
	}
	for u := 2; u < len(d.nodes); u++ {
		if !reach[u] {
			continue
		}
		x := d.nodes[u]
		out := make([]uint64, n-int(x.v)+1)
		lift(out, x.hi, x.v+1, 0)
		lift(out, x.lo, x.v+1, 1)
		vec[u] = out
	}
	a := make([]uint64, n+1)
	lift(a, root, 0, 0)
	return a
}
