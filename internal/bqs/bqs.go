// Package bqs implements Byzantine quorum systems (Malkhi & Reiter),
// realizing the paper's §7 remark that its hierarchical constructions
// "can also be adapted and used in Byzantine quorum systems".
//
// A Byzantine quorum system over n servers with fault bound f strengthens
// the intersection property:
//
//   - an f-dissemination system (for self-verifying data) requires
//     |Q₁ ∩ Q₂| ≥ f+1, so every pair of quorums shares a correct server;
//   - an f-masking system (for generic data) requires |Q₁ ∩ Q₂| ≥ 2f+1,
//     so correct shared servers outvote the faulty ones.
//
// Three constructions are provided:
//
//   - Threshold: quorums of ⌈(n+f+1)/2⌉ (dissemination, n ≥ 3f+1) or
//     ⌈(n+2f+1)/2⌉ (masking, n ≥ 4f+1) servers;
//   - MGrid: the Malkhi–Reiter grid where a quorum is √(f+1) full rows
//     plus √(f+1) full columns (masking);
//   - Clustered: the hierarchical adaptation — every logical element of
//     an arbitrary coterie (h-triang, h-T-grid, …) becomes a cluster of
//     3f+1 (dissemination) or 4f+1 (masking) servers and a quorum takes
//     2f+1 (resp. 3f+1) servers from each cluster of a logical quorum.
//     Two logical quorums share a cluster, and two quotas within one
//     cluster overlap in ≥ f+1 (resp. 2f+1) servers; at most f faults can
//     never disable a whole cluster, so availability under Byzantine
//     faults equals the underlying coterie's availability.
package bqs

import (
	"fmt"
	"math"
	"math/rand"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// Class selects the intersection requirement.
type Class int

// Byzantine quorum-system classes.
const (
	// Dissemination systems require |Q₁∩Q₂| ≥ f+1 (self-verifying data).
	Dissemination Class = iota
	// Masking systems require |Q₁∩Q₂| ≥ 2f+1 (generic data).
	Masking
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Masking {
		return "masking"
	}
	return "dissemination"
}

// overlap returns the required pairwise quorum intersection for fault
// bound f.
func (c Class) overlap(f int) int {
	if c == Masking {
		return 2*f + 1
	}
	return f + 1
}

// maxF is the largest fault bound whose 4f+1 servers fit in an int.
const maxF = (math.MaxInt - 1) / 4

// System is a Byzantine quorum system: a quorum.System whose quorums
// pairwise intersect in at least Overlap() servers.
type System interface {
	quorum.System
	// F returns the Byzantine fault bound.
	F() int
	// Class returns the intersection class.
	Class() Class
	// Overlap returns the guaranteed pairwise quorum intersection.
	Overlap() int
}

// Threshold is the canonical size-based Byzantine quorum system: every
// server set of the quorum size is a quorum.
type Threshold struct {
	n, f  int
	class Class
	size  int
}

var _ System = (*Threshold)(nil)

// NewThreshold returns the threshold system over n servers tolerating f
// Byzantine faults. Dissemination requires n ≥ 3f+1, masking n ≥ 4f+1.
func NewThreshold(n, f int, class Class) (*Threshold, error) {
	if f < 0 || f > maxF || n <= 0 {
		return nil, fmt.Errorf("bqs: invalid n=%d f=%d", n, f)
	}
	min := 3*f + 1
	if class == Masking {
		min = 4*f + 1
	}
	if n < min {
		return nil, fmt.Errorf("bqs: %v systems need n ≥ %d for f=%d (got %d)", class, min, f, n)
	}
	size := n - (n-class.overlap(f))/2 // ⌈(n + overlap) / 2⌉, without overflow
	return &Threshold{n: n, f: f, class: class, size: size}, nil
}

// Name implements quorum.System.
func (t *Threshold) Name() string {
	return fmt.Sprintf("byz-threshold(%d,f=%d,%v)", t.n, t.f, t.class)
}

// Universe implements quorum.System.
func (t *Threshold) Universe() int { return t.n }

// F implements System.
func (t *Threshold) F() int { return t.f }

// Class implements System.
func (t *Threshold) Class() Class { return t.class }

// Overlap implements System.
func (t *Threshold) Overlap() int { return t.class.overlap(t.f) }

// Available reports whether live contains a quorum.
func (t *Threshold) Available(live bitset.Set) bool { return live.Count() >= t.size }

// Pick returns a uniformly random quorum-sized subset of live.
func (t *Threshold) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	alive := live.Indices()
	if len(alive) < t.size {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	out := bitset.New(t.n)
	for _, id := range alive[:t.size] {
		out.Add(id)
	}
	return out, nil
}

// MinQuorumSize implements quorum.System.
func (t *Threshold) MinQuorumSize() int { return t.size }

// MaxQuorumSize implements quorum.System.
func (t *Threshold) MaxQuorumSize() int { return t.size }

// MGrid is the Malkhi–Reiter masking grid: servers in a k×k grid, a
// quorum is s full rows and s full columns with s = ⌈√(f+1)⌉; two quorums
// cross in at least 2s² ≥ 2f+2 > 2f+1 servers. It states its quorums as
// one quorum.Gate, which Available evaluates and Pick draws from.
type MGrid struct {
	k, f, s int
	avail   quorum.Lazy
}

var _ System = (*MGrid)(nil)

// NewMGrid returns the masking grid over a k×k server grid with fault
// bound f, using s = ⌈√(f+1)⌉ rows and columns per quorum. Availability
// under f Byzantine faults requires f ≤ k−s (each fault disables at most
// one row and one column).
func NewMGrid(k, f int) (*MGrid, error) {
	if k <= 0 || f < 0 || k > math.MaxInt/k {
		return nil, fmt.Errorf("bqs: invalid k=%d f=%d", k, f)
	}
	s := int(math.Ceil(math.Sqrt(float64(min(f, k) + 1))))
	if f > k-s {
		return nil, fmt.Errorf("bqs: M-Grid with k=%d tolerates at most f=%d (needs f ≤ k−⌈√(f+1)⌉)", k, k-s)
	}
	return &MGrid{k: k, f: f, s: s}, nil
}

// Name implements quorum.System.
func (m *MGrid) Name() string { return fmt.Sprintf("m-grid(%dx%d,f=%d)", m.k, m.k, m.f) }

// Universe implements quorum.System.
func (m *MGrid) Universe() int { return m.k * m.k }

// F implements System.
func (m *MGrid) F() int { return m.f }

// Class implements System.
func (m *MGrid) Class() Class { return Masking }

// Overlap implements System: two quorums share s rows × s columns twice.
func (m *MGrid) Overlap() int { return 2 * m.s * m.s }

// Gate states the quorums as one formula, compiled on first use: s of
// the full rows and s of the full columns. Rows and columns share
// servers, so the formula is for Eval, Pick and exact availability;
// nothing prices it.
func (m *MGrid) Gate() *quorum.Gate {
	return m.avail.Gate(func() *quorum.Gate {
		rows := make([]*quorum.Gate, m.k)
		cols := make([]*quorum.Gate, m.k)
		for i := range rows {
			row := make([]*quorum.Gate, m.k)
			col := make([]*quorum.Gate, m.k)
			for j := range row {
				row[j] = quorum.Leaf(i*m.k + j)
				col[j] = quorum.Leaf(j*m.k + i)
			}
			rows[i], cols[i] = quorum.All(row...), quorum.All(col...)
		}
		return quorum.All(quorum.Of(m.s, rows...), quorum.Of(m.s, cols...))
	})
}

// Available reports whether live contains s fully-live rows and s
// fully-live columns.
func (m *MGrid) Available(live bitset.Set) bool { return m.Gate().Eval(live) }

// Pick returns a random quorum by Gate.Pick: s of the fully-live rows and
// s of the fully-live columns, each chosen uniformly.
func (m *MGrid) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	out := bitset.New(m.k * m.k)
	if !m.Gate().Pick(rng, live, out) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return out, nil
}

// MinQuorumSize implements quorum.System.
func (m *MGrid) MinQuorumSize() int { return 2*m.s*m.k - m.s*m.s }

// MaxQuorumSize implements quorum.System.
func (m *MGrid) MaxQuorumSize() int { return 2*m.s*m.k - m.s*m.s }
