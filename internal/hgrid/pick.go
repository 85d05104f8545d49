package hgrid

import (
	"math/rand"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// PickRowCover returns a random hierarchical row-cover drawn from live (a
// read quorum), or quorum.ErrNoQuorum. At every level, one child with a
// feasible recursive row-cover is selected uniformly per child row.
func (h *Hierarchy) PickRowCover(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	return h.pickCover(rng, live, everything)
}

// PickFullLine returns a random hierarchical full-line drawn from live (a
// write quorum), or quorum.ErrNoQuorum. At every level a feasible child row
// (one where every child can produce a full-line) is selected uniformly.
func (h *Hierarchy) PickFullLine(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	h.compile()
	out := bitset.New(h.universe)
	if !pickFullLine(h.root, rng, live, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

func pickFullLine(o *Object, rng *rand.Rand, live bitset.Set, out bitset.Set) bool {
	if o.IsLeaf() {
		if !live.Contains(o.leaf) {
			return false
		}
		out.Add(o.leaf)
		return true
	}
	var feasible []int
	for r, row := range o.children {
		ok := true
		for _, c := range row {
			if !c.line.Eval(live) {
				ok = false
				break
			}
		}
		if ok {
			feasible = append(feasible, r)
		}
	}
	if len(feasible) == 0 {
		return false
	}
	r := feasible[rng.Intn(len(feasible))]
	for _, c := range o.children[r] {
		if !pickFullLine(c, rng, live, out) {
			return false
		}
	}
	return true
}

// PickPartialRowCoverBelow returns a random partial row-cover keeping rows
// >= minRow: a row-cover choice whose elements in those rows are live;
// elements above minRow are omitted from the result.
func (h *Hierarchy) PickPartialRowCoverBelow(rng *rand.Rand, live bitset.Set, minRow int) (bitset.Set, error) {
	return h.pickCover(rng, live, bound{row: minRow})
}

// PickPartialRowCoverAbove returns a random partial row-cover keeping rows
// <= maxRow (the Definition 4.2 orientation); elements below maxRow are
// omitted from the result.
func (h *Hierarchy) PickPartialRowCoverAbove(rng *rand.Rand, live bitset.Set, maxRow int) (bitset.Set, error) {
	return h.pickCover(rng, live, bound{row: maxRow, above: true})
}

func (h *Hierarchy) pickCover(rng *rand.Rand, live bitset.Set, b bound) (bitset.Set, error) {
	h.compile()
	out := bitset.New(h.universe)
	if !pickCover(h.root, rng, live, b, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

// pickCover adds a random partial row-cover of o at b: in every child row
// one child whose partial row-cover is live, selected uniformly.
func pickCover(o *Object, rng *rand.Rand, live bitset.Set, b bound, out bitset.Set) bool {
	if b.drops(o) {
		return true // nothing of o is kept
	}
	if o.IsLeaf() {
		if !live.Contains(o.leaf) {
			return false
		}
		out.Add(o.leaf)
		return true
	}
	for _, row := range o.children {
		var feasible []*Object
		for _, c := range row {
			if c.coverAt(b).Eval(live) {
				feasible = append(feasible, c)
			}
		}
		if len(feasible) == 0 {
			return false
		}
		if !pickCover(feasible[rng.Intn(len(feasible))], rng, live, b, out) {
			return false
		}
	}
	return true
}
