package hgrid

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// RWSystem is the hierarchical grid's read-write quorum system: a quorum is
// the union of a hierarchical row-cover and a hierarchical full-line of the
// root. Every minimal read-write quorum has exactly Cols + Rows − 1
// elements: a full-line always has Cols elements, a row-cover Rows (one per
// global row), and a minimal pair overlaps in exactly one process (the
// row-cover/full-line intersection theorem gives ≥ 1; the one-cell-per-band
// structure of a minimal row-cover gives ≤ 1).
type RWSystem struct {
	h        *Hierarchy
	circOnce sync.Once
	circ     *analysis.Circuit
}

var (
	_ quorum.System                = (*RWSystem)(nil)
	_ quorum.Enumerator            = (*RWSystem)(nil)
	_ analysis.CircuitAvailability = (*RWSystem)(nil)
	_ analysis.CacheKeyer          = (*RWSystem)(nil)
)

// NewRW returns the read-write quorum system of a hierarchy.
func NewRW(h *Hierarchy) *RWSystem { return &RWSystem{h: h} }

// Hierarchy returns the underlying hierarchy.
func (s *RWSystem) Hierarchy() *Hierarchy { return s.h }

// Name implements quorum.System.
func (s *RWSystem) Name() string {
	return fmt.Sprintf("h-grid(%dx%d,l=%d)", s.h.rows, s.h.cols, s.h.levels)
}

// Universe implements quorum.System.
func (s *RWSystem) Universe() int { return s.h.universe }

// Available reports whether live contains both a hierarchical row-cover and
// a hierarchical full-line.
func (s *RWSystem) Available(live bitset.Set) bool {
	return s.h.HasFullLine(live) && s.h.HasRowCover(live)
}

// AvailabilityCircuit implements analysis.CircuitAvailability: Available
// as a full-line gate and a row-cover gate, lowered once on first use;
// nil when the universe exceeds 64 processes.
func (s *RWSystem) AvailabilityCircuit() *analysis.Circuit {
	s.circOnce.Do(func() {
		s.circ = quorum.All(s.h.FullLineGate(), s.h.RowCoverGate()).Circuit(s.h.universe)
	})
	return s.circ
}

// CacheKey implements analysis.CacheKeyer.
func (s *RWSystem) CacheKey() string { return "hgrid-rw:" + s.h.CacheKey() }

// CacheKey serializes the hierarchy's structure and leaf IDs, which fully
// determine every predicate of the hierarchy; it implements
// analysis.CacheKeyer for the transversal-count memo cache.
func (h *Hierarchy) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hgrid:u%d:", h.universe)
	writeObjectKey(&b, h.root)
	return b.String()
}

func writeObjectKey(b *strings.Builder, o *Object) {
	if o.IsLeaf() {
		fmt.Fprintf(b, "%d", o.leaf)
		return
	}
	b.WriteByte('(')
	for r, row := range o.children {
		if r > 0 {
			b.WriteByte(';')
		}
		for c, child := range row {
			if c > 0 {
				b.WriteByte(',')
			}
			writeObjectKey(b, child)
		}
	}
	b.WriteByte(')')
}

// Pick returns a random read-write quorum drawn from live. The random
// per-level selection is the paper's §4.3 load-balancing strategy for the
// h-grid ("randomly select in each level the elements used").
func (s *RWSystem) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	fl, err := s.h.PickFullLine(rng, live)
	if err != nil {
		return bitset.Set{}, err
	}
	rc, err := s.h.PickRowCover(rng, live)
	if err != nil {
		return bitset.Set{}, err
	}
	fl.UnionWith(rc)
	return fl, nil
}

// MinQuorumSize implements quorum.System.
func (s *RWSystem) MinQuorumSize() int { return s.h.cols + s.h.rows - 1 }

// MaxQuorumSize implements quorum.System. Note: arbitrary (row-cover,
// full-line) unions can be larger, but the minimal quorums — a row-cover
// that routes its element in the full-line's band through the line — all
// have Cols + Rows − 1 elements, and those are the quorums Pick aims for
// and the analysis counts.
func (s *RWSystem) MaxQuorumSize() int { return s.h.cols + s.h.rows - 1 }

// EnumerateQuorums yields the union of every (full-line, row-cover) pair,
// deduplicated. Intended for tests on small configurations.
func (s *RWSystem) EnumerateQuorums(fn func(q bitset.Set) bool) {
	seen := make(map[string]bool)
	for _, fl := range s.h.FullLines() {
		for _, rc := range s.h.RowCovers() {
			q := fl.Union(rc)
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

// Render draws the hierarchy's process grid with the members of q marked
// '#' and others '.', with level-1 object boundaries indicated by spacing
// (Figure 1 of the paper).
func (s *RWSystem) Render(q bitset.Set) string { return s.h.Render(q) }

// Render draws the flattened process grid, marking members of q with '#'.
// Level-1 sub-object boundaries are separated by wider gaps and blank
// lines.
func (h *Hierarchy) Render(q bitset.Set) string {
	// Determine level-1 boundaries from the root's children.
	rowBreak := make(map[int]bool)
	colBreak := make(map[int]bool)
	if !h.root.IsLeaf() {
		for _, row := range h.root.children {
			rowBreak[row[0].top] = true
			for _, c := range row {
				colBreak[c.left] = true
			}
		}
	}
	out := make([]byte, 0, h.rows*(3*h.cols+2))
	for r := 0; r < h.rows; r++ {
		if r > 0 && rowBreak[r] {
			out = append(out, '\n')
		}
		for c := 0; c < h.cols; c++ {
			if c > 0 {
				if colBreak[c] {
					out = append(out, ' ', ' ')
				} else {
					out = append(out, ' ')
				}
			}
			id := h.ids[r][c]
			if q.Cap() == h.universe && q.Contains(id) {
				out = append(out, '#')
			} else {
				out = append(out, '.')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
