package quorum

import (
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
