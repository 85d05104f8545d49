package quorum

import (
	"math/rand"
	"testing"

	"hquorum/internal/bitset"
)

// evalByEnumeration is Eval's reference: some listed quorum lies within s.
func evalByEnumeration(quorums []bitset.Set, s bitset.Set) bool {
	for _, q := range quorums {
		if q.SubsetOf(s) {
			return true
		}
	}
	return false
}

func leaves(lo, hi int) []*Gate {
	var out []*Gate
	for i := lo; i < hi; i++ {
		out = append(out, Leaf(i))
	}
	return out
}

// TestGateEvalMatchesQuorums: over every subset of the processes, Eval
// holds exactly when the subset contains one of the formula's enumerated
// quorums — thresholds, nested thresholds, overlapping alternatives and
// the two constants.
func TestGateEvalMatchesQuorums(t *testing.T) {
	sub := func(lo int) *Gate { return Of(2, leaves(lo, lo+3)...) }
	for name, c := range map[string]struct {
		g *Gate
		n int
	}{
		"leaf":          {Leaf(2), 4},
		"majority-9":    {Of(5, leaves(0, 9)...), 9},
		"write-8-of-9":  {Of(8, leaves(0, 9)...), 9},
		"hmaj-3x3":      {Of(2, sub(0), sub(3), sub(6)), 9},
		"all":           {All(leaves(0, 5)...), 5},
		"any":           {Any(leaves(0, 5)...), 5},
		"overlapping":   {Any(All(Leaf(0), Leaf(1)), All(Leaf(1), Leaf(2)), Of(3, leaves(2, 6)...)), 6},
		"line-or-cover": {All(Any(Leaf(0), Leaf(1)), Any(All(Leaf(2), Leaf(3)), Leaf(0))), 4},
		"true":          {Of(0), 3},
		"false":         {Of(2, Leaf(0)), 3},
		"folded-true":   {All(Of(0), Leaf(1)), 3},
		"folded-false":  {Any(Of(3, Leaf(0)), Leaf(2)), 3},
	} {
		quorums := c.g.Quorums(c.n)
		for w := uint64(0); w < 1<<uint(c.n); w++ {
			s := bitset.FromWord(c.n, w)
			if got, want := c.g.Eval(s), evalByEnumeration(quorums, s); got != want {
				t.Fatalf("%s: Eval(%v) = %t, enumeration says %t", name, s, got, want)
			}
		}
	}
}

// randomGate draws a formula over n processes: leaves, the two constants,
// and thresholds needing one kid, every kid or something in between, with
// earlier subformulas reused from pool so subtrees are shared.
func randomGate(rng *rand.Rand, n, depth int, pool *[]*Gate) *Gate {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(10) {
		case 0:
			return Of(0)
		case 1:
			return Any()
		case 2, 3:
			if len(*pool) > 0 {
				return (*pool)[rng.Intn(len(*pool))]
			}
		}
		return Leaf(rng.Intn(n))
	}
	kids := make([]*Gate, 1+rng.Intn(5))
	for i := range kids {
		kids[i] = randomGate(rng, n, depth-1, pool)
	}
	need := 1 + rng.Intn(len(kids))
	switch rng.Intn(3) {
	case 0:
		need = 1
	case 1:
		need = len(kids)
	}
	g := Of(need, kids...)
	*pool = append(*pool, g)
	return g
}

// TestCircuitMatchesEval: on random formulas over 1 to 64 processes, the
// lowered circuit agrees with Eval on every one of 64 live sets per lane
// group, and there is no circuit beyond 64 processes.
func TestCircuitMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		if trial%10 == 0 {
			n = 64
		}
		var pool []*Gate
		g := randomGate(rng, n, 1+rng.Intn(4), &pool)
		circ := g.Circuit(n)
		if circ.Lanes() != n {
			t.Fatalf("circuit over %d lanes, want %d", circ.Lanes(), n)
		}
		lanes := make([]uint64, n)
		scratch := make([]uint64, circ.NumRegs())
		for round := 0; round < 8; round++ {
			for j := range lanes {
				lanes[j] = rng.Uint64()
				if round%2 == 1 {
					lanes[j] |= rng.Uint64()
				}
			}
			got := circ.Eval(lanes, scratch)
			for s := 0; s < 64; s++ {
				live := bitset.New(n)
				for j, l := range lanes {
					if l>>uint(s)&1 == 1 {
						live.Add(j)
					}
				}
				if want := g.Eval(live); (got>>uint(s)&1 == 1) != want {
					t.Fatalf("trial %d: circuit says %t on %v, Eval says %t", trial, !want, live, want)
				}
			}
		}
	}
	if c := Of(1, leaves(0, 65)...).Circuit(65); c != nil {
		t.Fatal("circuit over 65 processes, want nil")
	}
}
