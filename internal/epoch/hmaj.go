package epoch

import "hquorum/internal/quorum"

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
