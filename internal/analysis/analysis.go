// Package analysis computes exact and estimated failure probabilities of
// quorum systems.
//
// The exact path follows Proposition 3.1 of the paper: a set T is a size-i
// transversal of system S if it intersects every quorum; with aᵢ the number
// of size-i transversals, the failure probability under independent node
// crash probability p is
//
//	Fₚ(S) = Σᵢ aᵢ pⁱ qⁿ⁻ⁱ,  q = 1-p.
//
// Failure is the one evaluator of Fₚ, and the counts come from one engine:
// a reduced ordered decision diagram, exact up to 64 processes. A system
// that states its quorums as a quorum.Gate (every construction but Paths
// and Y) compiles the formula (Gate.TransversalCounts); Paths and Y, whose
// availability is graph connectivity, compile their graphs
// (quorum.ComponentCounts). A system with neither form, or one whose
// diagram outgrows its node cap, enumerates all 2ⁿ failed sets against its
// availability predicate, up to 30 processes; the enumerator is also the
// reference the diagrams are tested against. Beyond both,
// MonteCarloFailure provides an unbiased estimator with a reported
// standard error.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// Availability is the minimal view of a quorum system the analyzer needs.
// Available must be safe for concurrent use (all constructions in this
// repository are stateless).
type Availability interface {
	Universe() int
	Available(live bitset.Set) bool
}

// Gated is a system that states its quorums as one formula over its
// processes; Gate().Eval must agree with Available. Its transversal
// counts come from the formula's decision diagram.
type Gated interface {
	Gate() *quorum.Gate
}

// Compiled is a system that builds its own decision diagram, as Paths and
// Y do from their graphs; TransversalCounts must agree with Available and
// wrap quorum.ErrTooLarge when the diagram is out of reach.
type Compiled interface {
	TransversalCounts() ([]uint64, error)
}

// ErrTooLarge reports a system whose exact transversal counts no engine
// reaches: one over more than 30 processes whose diagram is out of reach
// (quorum.ErrTooLarge) or that has none.
var ErrTooLarge = errors.New("analysis: no exact transversal counts")

// enumBlockBits sizes the unit of work stealing: workers claim blocks of
// 2¹⁶ consecutive subset values from a shared atomic counter, so skewed
// predicates (cheap rejects in one region, deep recursion in another)
// cannot leave workers idle the way static chunking did.
const enumBlockBits = 16

// Counts returns the vector a where a[i] is the number of size-i
// transversals (failed sets that leave no live quorum): from the decision
// diagram of a gated or compiled system, up to 64 processes, and by
// enumerating every subset otherwise, up to 30. The error wraps
// ErrTooLarge when neither reaches the system.
func Counts(sys Availability) ([]uint64, error) {
	n := sys.Universe()
	var counts []uint64
	var err error
	switch s := sys.(type) {
	case Gated:
		counts, err = s.Gate().TransversalCounts(n)
	case Compiled:
		counts, err = s.TransversalCounts()
	default:
		err = fmt.Errorf("enumeration over %d processes, at most 30", n)
	}
	if err == nil {
		return counts, nil
	}
	if n > 30 {
		return nil, fmt.Errorf("%w: %w", ErrTooLarge, err)
	}
	return TransversalCountsParallel(sys, runtime.GOMAXPROCS(0)), nil
}

// TransversalCounts is Counts for a system it is known to reach; it panics
// otherwise.
func TransversalCounts(sys Availability) []uint64 {
	counts, err := Counts(sys)
	if err != nil {
		panic(err)
	}
	return counts
}

// TransversalCountsParallel enumerates all 2ⁿ failed sets of the
// universe against the system's availability predicate, whatever its
// diagram, with an explicit worker count; it is the reference the
// diagrams are tested against. Workers pull blocks of 2¹⁶ subsets from an
// atomic counter until the space is exhausted, so the result is identical
// for every worker count. It panics if the universe exceeds 30 nodes.
func TransversalCountsParallel(sys Availability, workers int) []uint64 {
	n := sys.Universe()
	if n > 30 {
		panic(fmt.Sprintf("analysis: exact enumeration over %d nodes is infeasible", n))
	}
	if workers < 1 {
		workers = 1
	}
	total := uint64(1) << uint(n)
	blocks := (total + (1 << enumBlockBits) - 1) >> enumBlockBits
	if workers > int(blocks) {
		workers = int(blocks)
	}
	full := uint64(1)<<uint(n) - 1

	var next atomic.Uint64
	counts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]uint64, n+1)
			live := bitset.New(n)
			for {
				b := next.Add(1) - 1
				if b >= blocks {
					break
				}
				lo := b << enumBlockBits
				hi := lo + 1<<enumBlockBits
				if hi > total {
					hi = total
				}
				for failed := lo; failed < hi; failed++ {
					live.SetWord(full &^ failed)
					if !sys.Available(live) {
						local[bits.OnesCount64(failed)]++
					}
				}
			}
			counts[w] = local
		}(w)
	}
	wg.Wait()

	out := make([]uint64, n+1)
	for _, local := range counts {
		for i, c := range local {
			out[i] += c
		}
	}
	return out
}

// Failure evaluates Fₚ = Σ aᵢ pⁱ qⁿ⁻ⁱ from precomputed transversal counts.
func Failure(counts []uint64, p float64) float64 {
	n := len(counts) - 1
	q := 1 - p
	// Powers by repeated multiplication: for n ≤ 63 the accumulated
	// relative error stays far below the 1e-12 tolerances used elsewhere,
	// and the tables cost 2n multiplies instead of 2·math.Pow per
	// coefficient.
	var pbuf, qbuf [64]float64
	pp, qp := pbuf[:], qbuf[:]
	if n >= len(pbuf) {
		pp = make([]float64, n+1)
		qp = make([]float64, n+1)
	}
	pp[0], qp[0] = 1, 1
	for i := 1; i <= n; i++ {
		pp[i] = pp[i-1] * p
		qp[i] = qp[i-1] * q
	}
	sum := 0.0
	for i, a := range counts {
		if a == 0 {
			continue
		}
		sum += float64(a) * pp[i] * qp[n-i]
	}
	return sum
}

// FailureAt computes exact failure probabilities of sys at each p in ps
// from its transversal counts. It panics where TransversalCounts does.
func FailureAt(sys Availability, ps []float64) []float64 {
	counts := TransversalCounts(sys)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = Failure(counts, p)
	}
	return out
}

// MonteCarloResult is the outcome of a sampled failure-probability estimate.
type MonteCarloResult struct {
	Estimate float64 // fraction of sampled crash patterns with no live quorum
	StdErr   float64 // binomial standard error of Estimate
	Samples  int
}

// MonteCarloFailure estimates Fₚ by sampling crash patterns: each node fails
// independently with probability p.
func MonteCarloFailure(sys Availability, p float64, samples int, rng *rand.Rand) MonteCarloResult {
	n := sys.Universe()
	hits := 0
	live := bitset.New(n)
	for s := 0; s < samples; s++ {
		live.Clear()
		for i := 0; i < n; i++ {
			if rng.Float64() >= p {
				live.Add(i)
			}
		}
		if !sys.Available(live) {
			hits++
		}
	}
	est := float64(hits) / float64(samples)
	return MonteCarloResult{
		Estimate: est,
		StdErr:   math.Sqrt(est * (1 - est) / float64(samples)),
		Samples:  samples,
	}
}

// Binomial returns C(n, k) as a float64 (exact for n ≤ 60).
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// MajorityFailure is the closed-form failure probability of an m-of-n
// threshold system: the system fails when fewer than m nodes survive.
func MajorityFailure(n, m int, p float64) float64 {
	q := 1 - p
	var pbuf, qbuf [64]float64
	pp, qp := pbuf[:], qbuf[:]
	if n >= len(pbuf) {
		pp = make([]float64, n+1)
		qp = make([]float64, n+1)
	}
	pp[0], qp[0] = 1, 1
	for i := 1; i <= n; i++ {
		pp[i] = pp[i-1] * p
		qp[i] = qp[i-1] * q
	}
	f := 0.0
	for k := 0; k < m; k++ { // k survivors, not enough
		f += Binomial(n, k) * qp[k] * pp[n-k]
	}
	return f
}

// Crossover locates a crash probability in (lo, hi) where two systems'
// failure probabilities cross, by bisection on F_A(p) − F_B(p) using
// precomputed transversal counts. It returns the crossing point and true,
// or 0 and false when the difference has the same sign at both ends.
func Crossover(countsA, countsB []uint64, lo, hi float64) (float64, bool) {
	diff := func(p float64) float64 { return Failure(countsA, p) - Failure(countsB, p) }
	dlo, dhi := diff(lo), diff(hi)
	if dlo == 0 {
		return lo, true
	}
	if dhi == 0 {
		return hi, true
	}
	if (dlo > 0) == (dhi > 0) {
		return 0, false
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		dm := diff(mid)
		if dm == 0 {
			return mid, true
		}
		if (dm > 0) == (dlo > 0) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}
