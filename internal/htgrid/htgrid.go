// Package htgrid implements the hierarchical T-grid quorum system, the
// first contribution of the paper (§4).
//
// A h-T-grid quorum is the union of a hierarchical full-line L (as in the
// h-grid) and a partial row-cover with respect to L: a hierarchical
// row-cover from which every element "above" a topmost element of L has
// been removed. Definition 4.2 compares hierarchical row paths with 1-based
// top-left positions and calls A above B when A's row path is
// lexicographically larger; taken literally, the removed elements are those
// in global rows below L's bottom-most row, so the surviving cover spans
// the rows from the top of the grid down to L's bottom. That literal
// orientation (OrientAboveLine, the default) reproduces all sixteen
// h-T-grid failure probabilities of Table 1 exactly.
//
// §4.2's prose ("one element from each row below the full line") suggests
// the mirrored orientation, also provided here as OrientBelowLine; on
// vertically symmetric hierarchies (4×4, the 6×4 of Table 1) the two
// yield identical failure probabilities, and both are valid coteries.
package htgrid

import (
	"fmt"
	"math/rand"
	"sync"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/hgrid"
	"hquorum/internal/quorum"
)

// Orientation selects which side of the full-line the partial row-cover
// keeps.
type Orientation int

const (
	// OrientAboveLine keeps cover elements in rows from the top down to the
	// line's bottom-most row (the literal Definition 4.2 reading; matches
	// the paper's published numbers).
	OrientAboveLine Orientation = iota
	// OrientBelowLine keeps cover elements in rows from the line's top-most
	// row down to the bottom (the §4.2 prose reading).
	OrientBelowLine
)

// System is the h-T-grid quorum system over a hierarchical grid.
type System struct {
	h        *hgrid.Hierarchy
	orient   Orientation
	circOnce sync.Once
	circ     *analysis.Circuit
}

var (
	_ quorum.System                = (*System)(nil)
	_ quorum.Enumerator            = (*System)(nil)
	_ analysis.CircuitAvailability = (*System)(nil)
	_ analysis.CacheKeyer          = (*System)(nil)
)

// New returns the h-T-grid quorum system of a hierarchy in the paper-exact
// orientation.
func New(h *hgrid.Hierarchy) *System { return NewOriented(h, OrientAboveLine) }

// NewOriented returns the h-T-grid with an explicit orientation.
func NewOriented(h *hgrid.Hierarchy, o Orientation) *System {
	return &System{h: h, orient: o}
}

// Auto returns the h-T-grid over the paper's standard hierarchy for a
// rows×cols process grid (see hgrid.Auto).
func Auto(rows, cols int) *System { return New(hgrid.Auto(rows, cols)) }

// Hierarchy returns the underlying hierarchy.
func (s *System) Hierarchy() *hgrid.Hierarchy { return s.h }

// Orientation returns the configured cover orientation.
func (s *System) Orientation() Orientation { return s.orient }

// Name implements quorum.System.
func (s *System) Name() string {
	return fmt.Sprintf("h-T-grid(%dx%d)", s.h.Rows(), s.h.Cols())
}

// Universe implements quorum.System.
func (s *System) Universe() int { return s.h.N() }

// Available reports whether live contains a h-T-grid quorum: a live
// hierarchical full-line L together with a live partial row-cover with
// respect to L. Both the best achievable line boundary and the cover
// feasibility are monotone in the boundary row, so testing the cover at
// the best boundary is exact.
func (s *System) Available(live bitset.Set) bool {
	if s.orient == OrientAboveLine {
		bottom := s.h.BestFullLineBottom(live)
		return bottom >= 0 && s.h.HasPartialRowCoverAbove(live, bottom)
	}
	top := s.h.BestFullLineTop(live)
	return top >= 0 && s.h.HasPartialRowCoverBelow(live, top)
}

// boundary returns the partial-cover threshold row induced by line, per the
// configured orientation.
func (s *System) boundary(line bitset.Set) int {
	if s.orient == OrientAboveLine {
		return s.h.MaxBottomRow(line)
	}
	return s.h.MinTopRow(line)
}

// coverFeasible reports whether a live partial row-cover exists at the
// given threshold.
func (s *System) coverFeasible(live bitset.Set, threshold int) bool {
	if s.orient == OrientAboveLine {
		return s.h.HasPartialRowCoverAbove(live, threshold)
	}
	return s.h.HasPartialRowCoverBelow(live, threshold)
}

// Pick returns a random h-T-grid quorum from live: a random live full-line
// whose boundary keeps the partial row-cover feasible, plus a random
// partial row-cover with respect to it.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	if !s.Available(live) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	line, err := s.h.PickFullLine(rng, live)
	if err != nil {
		return bitset.Set{}, err
	}
	if !s.coverFeasible(live, s.boundary(line)) {
		// The sampled line demands too large a cover; re-sample a few times
		// for diversity, then settle for a line achieving the best
		// boundary (which Available guarantees is feasible).
		ok := false
		for i := 0; i < 8; i++ {
			l2, err := s.h.PickFullLine(rng, live)
			if err != nil {
				return bitset.Set{}, err
			}
			if s.coverFeasible(live, s.boundary(l2)) {
				line, ok = l2, true
				break
			}
		}
		if !ok {
			line = s.bestLine(live)
		}
	}
	var prc bitset.Set
	if s.orient == OrientAboveLine {
		prc, err = s.h.PickPartialRowCoverAbove(rng, live, s.h.MaxBottomRow(line))
	} else {
		prc, err = s.h.PickPartialRowCoverBelow(rng, live, s.h.MinTopRow(line))
	}
	if err != nil {
		return bitset.Set{}, err
	}
	line.UnionWith(prc)
	return line, nil
}

// bestLine deterministically assembles a live full-line achieving the best
// boundary for the configured orientation.
func (s *System) bestLine(live bitset.Set) bitset.Set {
	out := bitset.New(s.h.N())
	var ok bool
	if s.orient == OrientAboveLine {
		target := s.h.BestFullLineBottom(live)
		ok = buildLine(s.h.Root(), live, out, func(o *hgrid.Object) bool {
			return feasibleAtMost(o, live, target)
		})
	} else {
		target := s.h.BestFullLineTop(live)
		ok = buildLine(s.h.Root(), live, out, func(o *hgrid.Object) bool {
			return feasibleAtLeast(o, live, target)
		})
	}
	if !ok {
		panic("htgrid: bestLine called without a feasible full-line")
	}
	return out
}

// buildLine assembles a full-line choosing, at every object, the first
// child row all of whose cells satisfy feasible.
func buildLine(o *hgrid.Object, live bitset.Set, out bitset.Set, feasible func(*hgrid.Object) bool) bool {
	if o.IsLeaf() {
		if !feasible(o) {
			return false
		}
		out.Add(o.Leaf())
		return true
	}
	for r := 0; r < o.ChildRows(); r++ {
		ok := true
		for c := 0; c < o.ChildCols(r); c++ {
			if !feasible(o.Child(r, c)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for c := 0; c < o.ChildCols(r); c++ {
			if !buildLine(o.Child(r, c), live, out, feasible) {
				return false
			}
		}
		return true
	}
	return false
}

// feasibleAtMost reports whether o can produce a live full-line whose
// bottom-most row is <= maxRow.
func feasibleAtMost(o *hgrid.Object, live bitset.Set, maxRow int) bool {
	if o.IsLeaf() {
		top, _, _, _ := o.Span()
		return top <= maxRow && live.Contains(o.Leaf())
	}
	for r := 0; r < o.ChildRows(); r++ {
		ok := true
		for c := 0; c < o.ChildCols(r); c++ {
			if !feasibleAtMost(o.Child(r, c), live, maxRow) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// feasibleAtLeast reports whether o can produce a live full-line whose
// top-most row is >= minRow.
func feasibleAtLeast(o *hgrid.Object, live bitset.Set, minRow int) bool {
	if o.IsLeaf() {
		top, _, _, _ := o.Span()
		return top >= minRow && live.Contains(o.Leaf())
	}
	for r := 0; r < o.ChildRows(); r++ {
		ok := true
		for c := 0; c < o.ChildCols(r); c++ {
			if !feasibleAtLeast(o.Child(r, c), live, minRow) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// MinQuorumSize implements quorum.System: a boundary line alone (≈ √n).
func (s *System) MinQuorumSize() int { return s.h.Cols() }

// MaxQuorumSize implements quorum.System: a line plus one element for every
// other global row (≈ 2√n − 1).
func (s *System) MaxQuorumSize() int { return s.h.Cols() + s.h.Rows() - 1 }

// EnumerateQuorums yields every h-T-grid quorum (full-line × row-cover
// combinations, with the row-cover truncated at the line's boundary),
// deduplicated. Intended for tests on small configurations.
func (s *System) EnumerateQuorums(fn func(q bitset.Set) bool) {
	seen := make(map[string]bool)
	covers := s.h.RowCovers()
	for _, fl := range s.h.FullLines() {
		threshold := s.boundary(fl)
		for _, rc := range covers {
			q := fl.Clone()
			rc.ForEach(func(id int) {
				keep := s.h.RowOf(id) <= threshold
				if s.orient == OrientBelowLine {
					keep = s.h.RowOf(id) >= threshold
				}
				if keep {
					q.Add(id)
				}
			})
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
}

// Render draws the flattened process grid with members of q marked '#'
// (package hgrid's renderer).
func (s *System) Render(q bitset.Set) string { return s.h.Render(q) }

// Gate compiles the system's quorums for cost-aware picks (see
// hgrid.LineCoverGate), in the configured orientation.
func (s *System) Gate() *quorum.Gate {
	return s.h.LineCoverGate(s.orient == OrientAboveLine)
}

// AvailabilityCircuit implements analysis.CircuitAvailability: Available
// as the line-and-cover gate (hgrid.LineAndCoverGate, which lowers to a
// smaller program than Gate), lowered once on first use; nil when the
// universe exceeds 64 processes.
func (s *System) AvailabilityCircuit() *analysis.Circuit {
	s.circOnce.Do(func() {
		s.circ = s.h.LineAndCoverGate(s.orient == OrientAboveLine).Circuit(s.h.Universe())
	})
	return s.circ
}

// CacheKey implements analysis.CacheKeyer: the hierarchy structure plus the
// cover orientation determine the availability predicate.
func (s *System) CacheKey() string {
	return fmt.Sprintf("htgrid:o%d:", s.orient) + s.h.CacheKey()
}
