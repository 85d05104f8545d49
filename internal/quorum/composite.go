package quorum

import (
	"fmt"
	"math/rand"

	"hquorum/internal/bitset"
)

// Composite is the coterie-composition operator (Neilsen–Mizuno): every
// element i of a base system is replaced by an independent sub-system over
// its own disjoint slice of nodes, and a composite quorum is a base quorum
// with each element expanded into a quorum of its sub-system. Two
// composite quorums intersect because their base quorums share an element
// whose sub-quorums intersect. Kumar's HQS is the recursive composition of
// majorities; the Byzantine clustered transform (package bqs) is the
// composition with threshold clusters.
type Composite struct {
	base    System
	subs    []System
	offsets []int // offsets[i] = first node ID of sub-system i
	n       int
	name    string
}

var _ System = (*Composite)(nil)

// NewComposite builds the composition. subs must have exactly one
// sub-system per base element; node IDs are assigned slice by slice in
// element order.
func NewComposite(base System, subs []System) (*Composite, error) {
	if base == nil {
		return nil, fmt.Errorf("quorum: nil base system")
	}
	if len(subs) != base.Universe() {
		return nil, fmt.Errorf("quorum: %d sub-systems for %d base elements", len(subs), base.Universe())
	}
	c := &Composite{base: base, subs: subs, offsets: make([]int, len(subs))}
	for i, sub := range subs {
		if sub == nil {
			return nil, fmt.Errorf("quorum: nil sub-system %d", i)
		}
		c.offsets[i] = c.n
		c.n += sub.Universe()
	}
	c.name = fmt.Sprintf("compose(%s,%d subs)", base.Name(), len(subs))
	return c, nil
}

// Name implements System.
func (c *Composite) Name() string { return c.name }

// Universe implements System.
func (c *Composite) Universe() int { return c.n }

// slice extracts sub-system i's live view from a composite live set.
func (c *Composite) slice(live bitset.Set, i int) bitset.Set {
	sub := bitset.New(c.subs[i].Universe())
	for j := 0; j < c.subs[i].Universe(); j++ {
		if live.Contains(c.offsets[i] + j) {
			sub.Add(j)
		}
	}
	return sub
}

// AvailableElements returns the base-level live set: element i is live
// when its sub-system is available on its slice of live.
func (c *Composite) AvailableElements(live bitset.Set) bitset.Set {
	elems := bitset.New(c.base.Universe())
	for i := range c.subs {
		if c.subs[i].Available(c.slice(live, i)) {
			elems.Add(i)
		}
	}
	return elems
}

// Available implements System.
func (c *Composite) Available(live bitset.Set) bool {
	return c.base.Available(c.AvailableElements(live))
}

// Pick implements System.
func (c *Composite) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	baseQ, err := c.base.Pick(rng, c.AvailableElements(live))
	if err != nil {
		return bitset.Set{}, err
	}
	out := bitset.New(c.n)
	var pickErr error
	baseQ.ForEach(func(i int) {
		if pickErr != nil {
			return
		}
		subQ, err := c.subs[i].Pick(rng, c.slice(live, i))
		if err != nil {
			pickErr = err
			return
		}
		subQ.ForEach(func(j int) { out.Add(c.offsets[i] + j) })
	})
	if pickErr != nil {
		return bitset.Set{}, pickErr
	}
	return out, nil
}

// MinQuorumSize implements System: exact when the base can enumerate its
// quorums, otherwise the optimistic bound (smallest base quorum times the
// smallest sub-quorum).
func (c *Composite) MinQuorumSize() int {
	if e, ok := c.base.(Enumerator); ok {
		best := c.n + 1
		e.EnumerateQuorums(func(q bitset.Set) bool {
			total := 0
			q.ForEach(func(i int) { total += c.subs[i].MinQuorumSize() })
			if total < best {
				best = total
			}
			return true
		})
		return best
	}
	min := c.subs[0].MinQuorumSize()
	for _, sub := range c.subs[1:] {
		if m := sub.MinQuorumSize(); m < min {
			min = m
		}
	}
	return c.base.MinQuorumSize() * min
}

// MaxQuorumSize implements System (exact for enumerable bases).
func (c *Composite) MaxQuorumSize() int {
	if e, ok := c.base.(Enumerator); ok {
		worst := 0
		e.EnumerateQuorums(func(q bitset.Set) bool {
			total := 0
			q.ForEach(func(i int) { total += c.subs[i].MaxQuorumSize() })
			if total > worst {
				worst = total
			}
			return true
		})
		return worst
	}
	max := 0
	for _, sub := range c.subs {
		if m := sub.MaxQuorumSize(); m > max {
			max = m
		}
	}
	return c.base.MaxQuorumSize() * max
}

// EnumerateQuorums implements Enumerator when both levels are enumerable.
func (c *Composite) EnumerateQuorums(fn func(q bitset.Set) bool) {
	be, ok := c.base.(Enumerator)
	if !ok {
		panic("quorum: composite base cannot enumerate")
	}
	stopped := false
	be.EnumerateQuorums(func(baseQ bitset.Set) bool {
		elems := baseQ.Indices()
		choices := make([][]bitset.Set, len(elems))
		for k, i := range elems {
			se, ok := c.subs[i].(Enumerator)
			if !ok {
				panic("quorum: composite sub-system cannot enumerate")
			}
			choices[k] = AllQuorums(se)
		}
		idx := make([]int, len(elems))
		for {
			out := bitset.New(c.n)
			for k, i := range elems {
				choices[k][idx[k]].ForEach(func(j int) { out.Add(c.offsets[i] + j) })
			}
			if !fn(out) {
				stopped = true
				return false
			}
			pos := 0
			for pos < len(idx) {
				idx[pos]++
				if idx[pos] < len(choices[pos]) {
					break
				}
				idx[pos] = 0
				pos++
			}
			if pos == len(idx) {
				break
			}
		}
		return !stopped
	})
}
