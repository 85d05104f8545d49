package cwlog

import (
	"math/rand"

	"hquorum/internal/bitset"
)

// Strategy is a probability distribution over base rows: a quorum is drawn
// by sampling a base row and choosing representatives below it uniformly.
type Strategy struct {
	sys     *System
	weights []float64 // weights[i] = probability of basing the quorum on row i
}

// TradeoffStrategy reconstructs the quorum-size/load tradeoff strategy the
// paper quotes from Peleg–Wool: the base row is chosen uniformly from the
// minimal bottom suffix of rows that together hold at least half of the
// processes. On CWlog(14) it induces an average quorum size of 4 with load
// 55.5%, and on CWlog(29) 5.25 with 43.75% — the §6 figures.
func (s *System) TradeoffStrategy() *Strategy {
	total := 0
	start := len(s.widths) - 1
	for ; start >= 0; start-- {
		total += s.widths[start]
		if 2*total >= s.n {
			break
		}
	}
	w := make([]float64, len(s.widths))
	rows := len(s.widths) - start
	for i := start; i < len(s.widths); i++ {
		w[i] = 1 / float64(rows)
	}
	return &Strategy{sys: s, weights: w}
}

// BalancedStrategy returns the load-optimal base-row distribution: weights
// are set so every row's per-process load is identical (the same
// equalization the h-T-grid line strategy uses), which minimizes the
// maximum load over all base-row strategies.
func (s *System) BalancedStrategy() *Strategy {
	d := len(s.widths)
	// With unit load L: w_i = L − W_{<i}/n_i, scanning top to bottom, then
	// normalize so Σw = 1.
	raw := make([]float64, d)
	cum := 0.0
	for i := 0; i < d; i++ {
		raw[i] = 1 - cum/float64(s.widths[i])
		if raw[i] < 0 {
			raw[i] = 0
		}
		cum += raw[i]
	}
	w := make([]float64, d)
	for i := range raw {
		w[i] = raw[i] / cum
	}
	return &Strategy{sys: s, weights: w}
}

// Weights returns the base-row distribution.
func (st *Strategy) Weights() []float64 {
	return append([]float64(nil), st.weights...)
}

// Loads returns the exact per-process access probability induced by the
// strategy on a fully-live wall.
func (st *Strategy) Loads() []float64 {
	s := st.sys
	loads := make([]float64, s.n)
	above := 0.0
	for i := 0; i < len(s.widths); i++ {
		per := st.weights[i] + above/float64(s.widths[i])
		for c := 0; c < s.widths[i]; c++ {
			loads[s.offsets[i]+c] = per
		}
		above += st.weights[i]
	}
	return loads
}

// Load returns the maximum per-process access probability (Definition 3.4
// under this strategy).
func (st *Strategy) Load() float64 {
	max := 0.0
	for _, l := range st.Loads() {
		if l > max {
			max = l
		}
	}
	return max
}

// AvgQuorumSize returns the expected quorum cardinality.
func (st *Strategy) AvgQuorumSize() float64 {
	s := st.sys
	avg := 0.0
	for i, w := range st.weights {
		avg += w * float64(s.widths[i]+len(s.widths)-1-i)
	}
	return avg
}

// Pick samples a quorum of the fully-live wall according to the strategy:
// it draws the base row, then Gate.Pick draws that row's representatives.
func (st *Strategy) Pick(rng *rand.Rand) bitset.Set {
	s := st.sys
	u := rng.Float64()
	base := len(s.widths) - 1
	for i, w := range st.weights {
		if u < w {
			base = i
			break
		}
		u -= w
	}
	s.Gate() // compiles s.alts
	out := bitset.New(s.n)
	s.alts[base].Pick(rng, bitset.Universe(s.n), out)
	return out
}
