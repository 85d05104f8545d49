// Package cwlog implements Peleg and Wool's crumbling walls, specifically
// the CWlog wall the paper benchmarks. A wall arranges processes in d rows
// of widths n₁ ≤ … ≤ n_d; a quorum is one full row i together with one
// representative from every row below i. CWlog uses widths nᵢ = ⌊lg i⌋+1,
// giving the smallest quorum ≈ lg n − lg lg n with optimal availability and
// load among systems with such small quorums.
//
// The paper's configurations — CWlog(14) with 6 rows [1,2,2,3,3,3] and
// CWlog(29) with 10 rows [1,2,2,3,3,3,3,4,4,4] — reproduce Table 2/3
// exactly.
package cwlog

import (
	"fmt"
	"math/rand"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// System is a crumbling-wall quorum system.
type System struct {
	widths  []int
	offsets []int // offsets[i] = first process ID of row i
	n       int
	name    string
	avail   quorum.Lazy
	alts    []*quorum.Gate // alts[i]: the quorums based at row i, set by compile
}

var (
	_ quorum.System     = (*System)(nil)
	_ quorum.Enumerator = (*System)(nil)
)

// NewWall builds a wall with explicit row widths. Process IDs are assigned
// row by row, top to bottom.
func NewWall(widths []int) (*System, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("cwlog: empty wall")
	}
	offsets := make([]int, len(widths))
	n := 0
	for i, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("cwlog: row %d has width %d", i, w)
		}
		offsets[i] = n
		n += w
	}
	return &System{widths: widths, offsets: offsets, n: n,
		name: fmt.Sprintf("cwlog(%d)", n)}, nil
}

// Log builds the CWlog wall over exactly n processes: rows of widths
// ⌊lg i⌋+1 (i = 1, 2, …), with the last row truncated if needed. The
// paper's 14- and 29-process walls come out exact (6 and 10 full rows).
func Log(n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("cwlog: invalid universe %d", n)
	}
	var widths []int
	total := 0
	for i := 1; total < n; i++ {
		w := bitlen(i)
		if total+w > n {
			w = n - total
		}
		widths = append(widths, w)
		total += w
	}
	return NewWall(widths)
}

// bitlen returns ⌊lg i⌋ + 1 for i ≥ 1.
func bitlen(i int) int {
	b := 0
	for i > 0 {
		b++
		i >>= 1
	}
	return b
}

// Name implements quorum.System.
func (s *System) Name() string { return s.name }

// Universe implements quorum.System.
func (s *System) Universe() int { return s.n }

// Rows returns the number of wall rows.
func (s *System) Rows() int { return len(s.widths) }

// Width returns the width of row i (0-based).
func (s *System) Width(i int) int { return s.widths[i] }

// ID returns the process ID at row i, column c.
func (s *System) ID(i, c int) int { return s.offsets[i] + c }

// Available reports whether live contains a quorum: some fully-live row
// with every row below it non-empty.
func (s *System) Available(live bitset.Set) bool {
	return s.Gate().Eval(live)
}

// compile states the quorums as one formula: some row i entirely, with
// one process of every row below it. The "one of row j" formulas are
// shared between the rows above j, so the diagram builds each once. The
// per-row alternatives are kept for Strategy.Pick.
func (s *System) compile() *quorum.Gate {
	rows := make([][]*quorum.Gate, len(s.widths))
	anyOf := make([]*quorum.Gate, len(s.widths))
	for i, w := range s.widths {
		for c := 0; c < w; c++ {
			rows[i] = append(rows[i], quorum.Leaf(s.offsets[i]+c))
		}
		anyOf[i] = quorum.Any(rows[i]...)
	}
	s.alts = make([]*quorum.Gate, len(rows))
	for i := range s.alts {
		s.alts[i] = quorum.All(append(rows[i], anyOf[i+1:]...)...)
	}
	return quorum.Any(s.alts...)
}

// Gate returns the wall's formula, compiling it on first use; exact
// availability is its decision diagram.
func (s *System) Gate() *quorum.Gate { return s.avail.Gate(s.compile) }

// Pick returns a random quorum from live by Gate.Pick: a uniformly random
// base row among those that can found one, then uniformly random live
// representatives below it.
func (s *System) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	out := bitset.New(s.n)
	if !s.Gate().Pick(rng, live, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

// MinQuorumSize implements quorum.System.
func (s *System) MinQuorumSize() int {
	min := s.n + 1
	for i, w := range s.widths {
		if size := w + len(s.widths) - 1 - i; size < min {
			min = size
		}
	}
	return min
}

// MaxQuorumSize implements quorum.System.
func (s *System) MaxQuorumSize() int {
	max := 0
	for i, w := range s.widths {
		if size := w + len(s.widths) - 1 - i; size > max {
			max = size
		}
	}
	return max
}

// FailureProbability returns the exact failure probability under
// independent crash probability p. Rows are independent; the DP scans from
// the bottom row up, tracking the joint state of (suffix fully covered,
// suffix contains a quorum).
func (s *System) FailureProbability(p float64) float64 {
	q := 1 - p
	// States: pCT = P(covered ∧ quorum), pCnT = P(covered ∧ no quorum),
	// pnCT = P(not covered ∧ quorum), pnCnT = P(not covered ∧ no quorum).
	pCT, pCnT, pnCT, pnCnT := 0.0, 1.0, 0.0, 0.0
	for i := len(s.widths) - 1; i >= 0; i-- {
		w := float64(s.widths[i])
		pFull := pow(q, w)
		pAny := 1 - pow(p, w)
		pAnyNotFull := pAny - pFull
		pNone := 1 - pAny
		// New quorum appears iff the row is full and the suffix below is
		// fully covered. Covered requires this row non-empty and the
		// suffix covered.
		nCT := pFull*(pCT+pCnT) + pAnyNotFull*pCT
		nCnT := pAnyNotFull * pCnT
		nnCT := pNone*pCT + pAny*pnCT + pNone*pnCT
		nnCnT := pNone*pCnT + pAny*pnCnT + pNone*pnCnT
		pCT, pCnT, pnCT, pnCnT = nCT, nCnT, nnCT, nnCnT
	}
	return pCnT + pnCnT
}

func pow(x float64, k float64) float64 {
	r := 1.0
	for i := 0; i < int(k); i++ {
		r *= x
	}
	return r
}

// EnumerateQuorums yields every minimal quorum.
func (s *System) EnumerateQuorums(fn func(q bitset.Set) bool) {
	d := len(s.widths)
	choice := make([]int, d)
	var emit func(base, i int) bool
	emit = func(base, i int) bool {
		if i == d {
			out := bitset.New(s.n)
			for c := 0; c < s.widths[base]; c++ {
				out.Add(s.offsets[base] + c)
			}
			for j := base + 1; j < d; j++ {
				out.Add(s.offsets[j] + choice[j])
			}
			return fn(out)
		}
		for c := 0; c < s.widths[i]; c++ {
			choice[i] = c
			if !emit(base, i+1) {
				return false
			}
		}
		return true
	}
	for base := 0; base < d; base++ {
		if !emit(base, base+1) {
			return
		}
	}
}
