// Package hquorum is a library of hierarchical quorum systems, faithfully
// reproducing "Revisiting Hierarchical Quorum Systems" (Preguiça &
// Martins, ICDCS 2001) together with every baseline construction the paper
// evaluates, the analysis machinery behind its tables, and the distributed
// coordination protocols quorum systems exist to serve.
//
// # Constructions
//
// The paper's two contributions:
//
//   - NewHTGrid: the hierarchical T-grid (§4) — a full-line plus a partial
//     row-cover, shrinking h-grid quorums from 2√n−1 to √n..2√n−1.
//   - NewHTriang: the hierarchical triangle (§5) — constant quorum size
//     ≈ √(2n) with almost-optimal load √2/√n.
//
// The baselines: NewMajority / NewTieBreakMajority (Gifford voting),
// NewHQS (Kumar's hierarchical quorum consensus), NewCWlog (Peleg–Wool
// crumbling walls), NewHGrid (Kumar–Cheung hierarchical grid), NewPaths
// (Naor–Wool planar paths) and NewY (the game-of-Y system).
//
// Every construction implements the System interface: an availability
// predicate for exact failure-probability analysis, and a quorum picker for
// driving protocols. FailureProbabilities computes exact Fₚ values from
// transversal counts (Proposition 3.1); packages under internal/ expose
// construction-specific closed forms and the strategies of §4.3 and §5.
//
// # Protocols
//
// The cluster/dmutex/rkv layers (re-exported here as aliases) provide a
// deterministic discrete-event cluster simulation, Maekawa-style
// distributed mutual exclusion over any System, and the h-grid's
// replicated register with read / blind-write / read-write operations.
package hquorum

import (
	"math/rand"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/cwlog"
	"hquorum/internal/hgrid"
	"hquorum/internal/hqs"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/loadopt"
	"hquorum/internal/majority"
	"hquorum/internal/paths"
	"hquorum/internal/quorum"
	"hquorum/internal/ysys"
)

// Core abstractions.
type (
	// System is a quorum system: an availability predicate plus a quorum
	// picker over a universe of n nodes (see internal/quorum).
	System = quorum.System
	// Set is a set of node indices.
	Set = bitset.Set
	// Coterie is an explicit list of quorums.
	Coterie = quorum.Coterie
)

// ErrNoQuorum is returned by System.Pick when the live set contains no
// quorum.
var ErrNoQuorum = quorum.ErrNoQuorum

// ErrDegraded is returned by protocol operations that miss their deadline
// while a quorum still exists among trusted nodes.
var ErrDegraded = quorum.ErrDegraded

// NewSet returns an empty node set of capacity n.
func NewSet(n int) Set { return bitset.New(n) }

// AllNodes returns the full node set {0..n-1}.
func AllNodes(n int) Set { return bitset.Universe(n) }

// --- The paper's contributions ---

// HTGrid is the hierarchical T-grid quorum system (§4).
type HTGrid = htgrid.System

// NewHTGrid returns the h-T-grid over the paper's standard hierarchy for a
// rows×cols process grid ("logical grids of size 2×2 whenever possible").
func NewHTGrid(rows, cols int) *HTGrid { return htgrid.Auto(rows, cols) }

// HTriang is the hierarchical triangle quorum system (§5).
type HTriang = htriang.System

// NewHTriang returns the h-triang over a triangle with k rows
// (n = k(k+1)/2 processes); every quorum has exactly k elements.
func NewHTriang(k int) *HTriang { return htriang.New(k) }

// --- Baselines ---

// NewMajority returns Gifford's majority system over n nodes.
func NewMajority(n int) System { return majority.New(n) }

// NewTieBreakMajority returns the even-universe majority variant where one
// node holds two votes (the paper's "Majority (28)").
func NewTieBreakMajority(n int) System { return majority.NewTieBreak(n) }

// NewHQS returns Kumar's hierarchical quorum consensus as a complete
// degree-ary tree of the given depth (NewHQS(3, 3) is the paper's 27-node
// system).
func NewHQS(levels, degree int) System { return hqs.Uniform(levels, degree) }

// NewGroupedHQS returns the two-level HQS of groups×size leaves
// (NewGroupedHQS(5, 3) is the paper's 15-node system).
func NewGroupedHQS(groups, size int) System { return hqs.Grouped(groups, size) }

// NewCWlog returns the Peleg–Wool CWlog crumbling wall over n nodes.
func NewCWlog(n int) (System, error) { return cwlog.Log(n) }

// NewHGrid returns the Kumar–Cheung hierarchical grid's read-write quorum
// system over a rows×cols process grid.
func NewHGrid(rows, cols int) System { return hgrid.NewRW(hgrid.Auto(rows, cols)) }

// NewFlatGrid returns the single-level grid protocol's read-write system.
func NewFlatGrid(rows, cols int) System { return hgrid.NewRW(hgrid.Flat(rows, cols)) }

// NewPaths returns the Naor–Wool Paths system on the centered ℓ-grid
// (n = 2ℓ²+2ℓ+1).
func NewPaths(ell int) System { return paths.New(ell) }

// NewY returns the game-of-Y quorum system on a triangular board with k
// rows (n = k(k+1)/2).
func NewY(k int) System { return ysys.New(k) }

// --- Analysis ---

// FailureProbabilities computes the exact failure probability of sys at
// each crash probability in ps from its transversal counts (Proposition
// 3.1), through a decision diagram up to 64 nodes: of its quorum formula
// for every construction but Paths and Y, and of their graphs for those
// two. A diagram past its node cap falls back to full subset enumeration
// up to 30 nodes. It panics beyond; use EstimateFailure there.
func FailureProbabilities(sys System, ps []float64) []float64 {
	return analysis.FailureAt(sys, ps)
}

// EstimateFailure estimates the failure probability of sys at crash
// probability p by Monte Carlo sampling, returning the estimate and its
// standard error.
func EstimateFailure(sys System, p float64, samples int, rng *rand.Rand) (estimate, stderr float64) {
	res := analysis.MonteCarloFailure(sys, p, samples, rng)
	return res.Estimate, res.StdErr
}

// LoadLowerBound returns Proposition 3.3's bound max(c/n, 1/c) on the
// system load.
func LoadLowerBound(sys System) float64 {
	return loadopt.LowerBound(sys.MinQuorumSize(), sys.Universe())
}

// MeasureLoad estimates the average quorum size and the induced load of
// sys.Pick over the fully-live universe.
func MeasureLoad(sys System, rng *rand.Rand, samples int) (avgQuorumSize, load float64, err error) {
	res, err := loadopt.MeasureSystem(sys, rng, samples)
	return res.AvgQuorumSize, res.Load, err
}

// Validate checks the intersection property of an enumerable system by
// flattening it into an explicit coterie. Intended for small universes.
func Validate(sys System) error {
	c, err := quorum.FromSystem(sys)
	if err != nil {
		return err
	}
	return c.Validate()
}
