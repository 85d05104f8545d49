// Cost-aware picks: instead of drawing a random quorum, take the one that
// is cheapest to wait for under a per-member cost estimate (a measured or
// modeled round-trip). The pick is exact — quorum.Gate.Cheapest minimises
// the slowest member, then the total, then the member count, over the
// whole family — and random only among quorums tied on all three.
//
// The only obligation on a read quorum is that it meets every write
// quorum. Row-covers (or read thresholds) do by construction; so do the
// write quorums themselves wherever they pairwise intersect: the
// h-T-grid and the h-triang are coteries (paper §4, §5) and 2W > n makes
// (hierarchical) majority writes one. A cost-aware read therefore takes
// the cheapest of both families — on a WAN an in-region h-T-grid line
// instead of a row-cover, which needs a block of every band. The h-grid
// is the exception: two full-lines of different child rows are disjoint,
// so its reads stay on row-covers.
package epoch

import (
	"math/rand"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// hmajGate compiles the hierarchical threshold family over the dense
// leaves [lo, lo+width): ks[0] of a node's degree children, each
// recursively. A flat majority is the one-level case of degree n.
func hmajGate(degree int, ks []int, lo, width int) *quorum.Gate {
	if len(ks) == 0 {
		return quorum.Leaf(lo)
	}
	width /= degree
	kids := make([]*quorum.Gate, degree)
	for c := range kids {
		kids[c] = hmajGate(degree, ks[1:], lo+c*width, width)
	}
	return quorum.Of(ks[0], kids...)
}

// gates returns what a read and a write may pick from: the write family,
// and the read family joined with it wherever write quorums serve reads.
func (p *Pickers) gates() (read, write *quorum.Gate) {
	p.compileOnce.Do(p.compileGates)
	return p.readGate, p.writeGate
}

// Families returns the read and the write family alone, over the dense
// member space — what availability is counted on.
func (p *Pickers) Families() (read, write *quorum.Gate) {
	p.compileOnce.Do(p.compileGates)
	return p.readFamily, p.writeGate
}

func (p *Pickers) compileGates() {
	p.readFamily, p.writeGate = p.compile()
	p.readGate = p.readFamily
	if p.writesRead {
		p.readGate = quorum.Any(p.readFamily, p.writeGate)
	}
}

// cheapest picks the cheapest read or write quorum from live. cost is
// indexed by global node ID; members beyond its length cost nothing.
func (p *Pickers) cheapest(read bool, rng *rand.Rand, live bitset.Set, cost []time.Duration) (bitset.Set, error) {
	g, write := p.gates()
	if !read {
		g = write
	}
	// One unit per member on top of the scaled cost: among equal totals
	// the smaller quorum wins, so free members are not padding.
	m := len(p.members)
	price := make([]int64, m)
	for i, id := range p.members {
		price[i] = 1
		if int(id) < len(cost) {
			price[i] += int64(cost[id]) * int64(m+1)
		}
	}
	q, ok := g.Cheapest(rng, p.toDense(live), price)
	if !ok {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return p.toGlobal(q), nil
}
