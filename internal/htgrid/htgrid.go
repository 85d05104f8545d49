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
	h      *hgrid.Hierarchy
	orient Orientation

	// Compiled once, on first use (compile): per boundary row r, the
	// full-lines on the cover's side of r and the partial row-covers at
	// r, and the family Any_r(lines[r] ∧ covers[r]) that Available
	// evaluates.
	compiled      sync.Once
	lines, covers []*quorum.Gate
	family        *quorum.Gate

	// The line-cover formula Gate returns, built on first use.
	gate quorum.Lazy
}

var (
	_ quorum.System     = (*System)(nil)
	_ quorum.Enumerator = (*System)(nil)
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

// compile builds the boundary gates in the configured orientation; every
// reader calls it first.
func (s *System) compile() {
	s.compiled.Do(func() {
		above := s.orient == OrientAboveLine
		rows := s.h.Rows()
		s.lines, s.covers = make([]*quorum.Gate, rows), make([]*quorum.Gate, rows)
		alts := make([]*quorum.Gate, rows)
		for r := range alts {
			s.lines[r], s.covers[r] = s.h.LineGate(r, above), s.h.CoverGate(r, above)
			alts[r] = quorum.All(s.lines[r], s.covers[r])
		}
		s.family = quorum.Any(alts...)
	})
}

// Available reports whether live contains a h-T-grid quorum: a live
// hierarchical full-line L together with a live partial row-cover with
// respect to L.
func (s *System) Available(live bitset.Set) bool {
	s.compile()
	return s.family.Eval(live)
}

// boundary returns the partial-cover threshold row induced by line, per the
// configured orientation.
func (s *System) boundary(line bitset.Set) int {
	if s.orient == OrientAboveLine {
		return s.h.MaxBottomRow(line)
	}
	return s.h.MinTopRow(line)
}

// Pick returns a random h-T-grid quorum from live, the §4.3 sampler built
// from Gate.Pick: a random live full-line whose boundary keeps the partial
// row-cover feasible, plus a random partial row-cover at that boundary.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	if !s.Available(live) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	lines := s.h.FullLineGate()
	q := bitset.New(s.h.Universe())
	lines.Pick(rng, live, q)
	// The sampled line may demand too large a cover: re-sample up to eight
	// times for diversity, then settle for a line achieving the best
	// boundary (which Available guarantees is feasible).
	for i := 0; !s.covers[s.boundary(q)].Eval(live); i++ {
		q.Clear()
		if i == 8 {
			s.bestLine(live, q)
			break
		}
		lines.Pick(rng, live, q)
	}
	s.covers[s.boundary(q)].Pick(rng, live, q)
	return q, nil
}

// bestLine deterministically adds to out a live full-line achieving the
// best boundary: the witness of the first boundary whose line gate holds,
// scanning from the side the cover keeps (the smallest row above the
// line, the largest below it).
func (s *System) bestLine(live, out bitset.Set) {
	for i := range s.lines {
		r := i
		if s.orient == OrientBelowLine {
			r = len(s.lines) - 1 - i
		}
		if s.lines[r].Witness(live, out) {
			return
		}
	}
	panic("htgrid: bestLine called without a feasible full-line")
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

// Gate compiles the system's quorums for cost-aware picks and exact
// availability (see hgrid.LineCoverGate), in the configured orientation.
func (s *System) Gate() *quorum.Gate {
	return s.gate.Gate(func() *quorum.Gate { return s.h.LineCoverGate(s.orient == OrientAboveLine) })
}
