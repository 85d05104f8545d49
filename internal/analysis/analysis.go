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
// Failure is the one evaluator of Fₚ; the counts come from one of two
// engines. A system that states its quorums as a quorum.Gate (every
// construction but Paths and Y) compiles it to a decision diagram and
// counts exactly up to 64 processes (Gate.TransversalCounts). Any other
// system enumerates all 2ⁿ failed sets against its availability
// predicate, spread over goroutines that steal fixed-size subset blocks
// from a shared atomic counter, up to 30 processes; the enumerator is also
// the reference the diagram is tested against. Beyond both,
// MonteCarloFailure provides an unbiased estimator with a reported
// standard error.
//
// Repeated sweeps of Paths and Y are memoized: see CachedTransversalCounts
// and the CacheKeyer contract in cache.go.
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
	"time"

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

// WordAvailability is an optional allocation-free fast path for systems
// over at most 64 nodes: AvailableWord(live) must agree with
// Available(bitset.FromWord(n, live)). The enumerator and the sampler use
// it when implemented; it is what makes 2²⁸ subsets tractable. Only Paths
// and Y implement it: their availability is graph connectivity (a padded
// shift flood), not a threshold formula.
type WordAvailability interface {
	AvailableWord(live uint64) bool
}

// Gated is a system that states its quorums as one formula over its
// processes; Gate().Eval must agree with Available. Its transversal
// counts come from the formula's decision diagram.
type Gated interface {
	Gate() *quorum.Gate
}

// ErrTooLarge reports a system whose exact transversal counts no engine
// reaches: a gated system beyond the diagram (quorum.ErrTooLarge), or
// another over more than 30 processes.
var ErrTooLarge = errors.New("analysis: no exact transversal counts")

// Progress observes a running enumeration: done blocks finished out of
// total, with elapsed wall time since the sweep started. Callbacks are
// delivered from a single goroutine at a bounded rate plus once on
// completion.
type Progress func(done, total uint64, elapsed time.Duration)

var (
	progressMu sync.Mutex
	progressFn Progress
)

// SetProgress installs a process-wide progress callback for subsequent
// enumerations (nil disables). Short sweeps (< 2 blocks) never report.
func SetProgress(fn Progress) {
	progressMu.Lock()
	progressFn = fn
	progressMu.Unlock()
}

// enumBlockBits sizes the unit of work stealing: workers claim blocks of
// 2¹⁶ consecutive subset values from a shared atomic counter, so skewed
// predicates (cheap rejects in one region, deep recursion in another)
// cannot leave workers idle the way static chunking did.
const enumBlockBits = 16

// Counts returns the vector a where a[i] is the number of size-i
// transversals (failed sets that leave no live quorum): from the decision
// diagram of a gated system up to 64 processes, by enumerating every
// subset otherwise, up to 30. The error wraps ErrTooLarge when neither
// reaches the system.
func Counts(sys Availability) ([]uint64, error) {
	n := sys.Universe()
	if g, ok := sys.(Gated); ok {
		counts, err := g.Gate().TransversalCounts(n)
		if err == nil {
			return counts, nil
		}
		if n > 30 {
			return nil, fmt.Errorf("%w: %w", ErrTooLarge, err)
		}
	}
	if n > 30 {
		return nil, fmt.Errorf("%w: enumeration over %d processes, at most 30", ErrTooLarge, n)
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
// gate, with an explicit worker count; it is the reference the diagram is
// tested against. Workers pull blocks of 2¹⁶ subsets from an atomic
// counter until the space is exhausted, so the result is identical for
// every worker count. It panics if the universe exceeds 30 nodes.
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

	var next, done atomic.Uint64
	stop := make(chan struct{})
	var reporter sync.WaitGroup
	progressMu.Lock()
	report := progressFn
	progressMu.Unlock()
	if report != nil && blocks > 1 {
		start := time.Now()
		reporter.Add(1)
		go func() {
			defer reporter.Done()
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					report(blocks, blocks, time.Since(start))
					return
				case <-tick.C:
					report(done.Load(), blocks, time.Since(start))
				}
			}
		}()
	}

	counts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]uint64, n+1)
			fast, isFast := sys.(WordAvailability)
			var live bitset.Set
			if !isFast {
				live = bitset.New(n)
			}
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
				if isFast {
					for failed := lo; failed < hi; failed++ {
						if !fast.AvailableWord(full &^ failed) {
							local[bits.OnesCount64(failed)]++
						}
					}
				} else {
					for failed := lo; failed < hi; failed++ {
						live.SetWord(full &^ failed)
						if !sys.Available(live) {
							local[bits.OnesCount64(failed)]++
						}
					}
				}
				done.Add(1)
			}
			counts[w] = local
		}(w)
	}
	wg.Wait()
	close(stop)
	reporter.Wait()

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
// from CachedTransversalCounts. It panics where TransversalCounts does.
func FailureAt(sys Availability, ps []float64) []float64 {
	counts := CachedTransversalCounts(sys)
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
// independently with probability p. Systems with a word fast path are
// sampled with a bit-sliced Bernoulli generator (64 iid survival bits per
// word, ⌊64/n⌋ crash patterns per word) instead of one rng.Float64 call per
// node.
func MonteCarloFailure(sys Availability, p float64, samples int, rng *rand.Rand) MonteCarloResult {
	n := sys.Universe()
	hits := 0
	if fast, ok := sys.(WordAvailability); ok && n <= 64 {
		q := 1 - p // P(bit set) = P(node survives)
		mask := ^uint64(0)
		if n < 64 {
			mask = uint64(1)<<uint(n) - 1
		}
		per := 64 / n
		for s := 0; s < samples; {
			w := bernoulliWord(rng, q)
			for j := 0; j < per && s < samples; j++ {
				if !fast.AvailableWord(w & mask) {
					hits++
				}
				w >>= uint(n)
				s++
			}
		}
	} else {
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
