package quorum

import (
	"errors"
	"math/bits"
	"math/rand"
	"slices"
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

// choices counts the kid choices Quorums enumerates before it
// deduplicates: at every gate, each choice of need kids.
func choices(g *Gate) int {
	if g.id >= 0 {
		return 1
	}
	// at[t]: the ways to choose t of the kids seen so far.
	at := make([]int, g.need+1)
	at[0] = 1
	for _, k := range g.kids {
		c := choices(k)
		for t := g.need; t >= 1; t-- {
			at[t] = min(at[t]+c*at[t-1], 1<<20)
		}
	}
	return at[g.need]
}

// TestGatePick: on random formulas over up to 8 processes, CheckPick
// holds — Pick fails exactly when Eval does, otherwise adds one listed
// quorum within live, and reaches every listed quorum when all are live.
func TestGatePick(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(8)
		var pool []*Gate
		g := randomGate(rng, n, 1+rng.Intn(3), &pool)
		if choices(g) > 200 {
			continue // Quorums would enumerate too much
		}
		checked++
		if err := CheckPick(g, n, rng, 30); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d of 300 random formulas checked", checked)
	}
}

// TestGatePickDraws pins the draw rule: a conjunction draws nothing, a
// disjunction one rng.Intn over the kids that hold, a threshold a partial
// Fisher–Yates over them, taking kids in the order drawn.
func TestGatePickDraws(t *testing.T) {
	live := bitset.FromIndices(6, 0, 1, 2, 4, 5)
	for seed := int64(0); seed < 50; seed++ {
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		out := bitset.New(6)
		if !All(Leaf(0), Leaf(1)).Pick(rng, live, out) || rng.Int63() != ref.Int63() {
			t.Fatal("conjunction drew from the rng")
		}
		out = bitset.New(6)
		Any(leaves(0, 6)...).Pick(rng, live, out)
		if want := []int{0, 1, 2, 4, 5}[ref.Intn(5)]; !out.Equal(bitset.FromIndices(6, want)) {
			t.Fatalf("seed %d: disjunction took %v, want {%d}", seed, out, want)
		}
		out = bitset.New(6)
		Of(3, leaves(0, 6)...).Pick(rng, live, out)
		ok := []int{0, 1, 2, 4, 5}
		for i := 0; i < 3; i++ {
			j := i + ref.Intn(len(ok)-i)
			ok[i], ok[j] = ok[j], ok[i]
		}
		if want := bitset.FromIndices(6, ok[:3]...); !out.Equal(want) || rng.Int63() != ref.Int63() {
			t.Fatalf("seed %d: threshold took %v, want %v", seed, out, want)
		}
	}
}

// TestDiagramMatchesBruteForce: on random formulas over 1 to 20
// processes — constants, gates left needing more kids than they have and
// leaves shared across branches among them — the diagram's transversal
// counts equal a count of Eval over all 2ⁿ live sets.
func TestDiagramMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		if trial%50 == 0 {
			n = 20
		}
		var pool []*Gate
		g := randomGate(rng, n, 1+rng.Intn(4), &pool)
		if trial%60 == 1 {
			g = Of(0)
		}
		got, err := g.TransversalCounts(n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := make([]uint64, n+1)
		live := bitset.New(n)
		full := uint64(1)<<uint(n) - 1
		for failed := uint64(0); failed <= full; failed++ {
			live.SetWord(full &^ failed)
			if !g.Eval(live) {
				want[bits.OnesCount64(failed)]++
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d over %d processes: diagram counts %v, brute force %v", trial, n, got, want)
		}
	}
}

// TestComponentCountsMatchBruteForce checks ComponentCounts on random
// graphs over 1–12 processes, with one to three groups of one to three
// random sides, against a 2ⁿ loop that floods every live component.
func TestComponentCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		neighbors := make([][]int, n)
		for v := 0; v < n; v++ {
			for u := v + 1; u < n; u++ {
				if rng.Intn(3) == 0 {
					neighbors[v] = append(neighbors[v], u)
					neighbors[u] = append(neighbors[u], v)
				}
			}
		}
		groups := make([][][]int, 1+rng.Intn(3))
		for i := range groups {
			groups[i] = make([][]int, 1+rng.Intn(3))
			for j := range groups[i] {
				groups[i][j] = rng.Perm(n)[:1+rng.Intn(n)]
			}
		}
		got, err := ComponentCounts(neighbors, groups...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// holds reports whether some live component touches every side.
		holds := func(live uint64, sides [][]int) bool {
			for seen := uint64(0); live&^seen != 0; {
				comp := live &^ seen & -(live &^ seen)
				for grown := uint64(0); grown != comp; {
					grown = comp
					for v := 0; v < n; v++ {
						if comp&(1<<v) != 0 {
							for _, u := range neighbors[v] {
								comp |= live & (1 << u)
							}
						}
					}
				}
				seen |= comp
				all := true
				for _, side := range sides {
					touch := false
					for _, v := range side {
						touch = touch || comp&(1<<v) != 0
					}
					all = all && touch
				}
				if all {
					return true
				}
			}
			return false
		}
		want := make([]uint64, n+1)
		full := uint64(1)<<uint(n) - 1
		for failed := uint64(0); failed <= full; failed++ {
			for _, sides := range groups {
				if !holds(full&^failed, sides) {
					want[bits.OnesCount64(failed)]++
					break
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d over %d processes, groups %v: diagram counts %v, brute force %v", trial, n, groups, got, want)
		}
	}
}

// TestDiagramOutOfReach: a universe over 64 processes, a leaf outside the
// universe and a diagram past its node cap each return ErrTooLarge; the
// same formula under the cap counts.
func TestDiagramOutOfReach(t *testing.T) {
	if _, err := Of(1, leaves(0, 65)...).TransversalCounts(65); !errors.Is(err, ErrTooLarge) {
		t.Errorf("65 processes: err %v, want ErrTooLarge", err)
	}
	if _, err := All(Leaf(0), Leaf(7)).TransversalCounts(5); !errors.Is(err, ErrTooLarge) {
		t.Errorf("leaf 7 of 5 processes: err %v, want ErrTooLarge", err)
	}
	// Building 7 of 12 makes about 120 nodes in all.
	maj := Of(7, leaves(0, 12)...)
	if _, err := maj.transversalCounts(12, 60); !errors.Is(err, ErrTooLarge) {
		t.Errorf("7 of 12 under a 60-node cap: err %v, want ErrTooLarge", err)
	}
	got, err := maj.transversalCounts(12, 200)
	if err != nil {
		t.Fatalf("7 of 12 under a 200-node cap: %v", err)
	}
	// Six or more crashes of twelve leave fewer than seven live.
	for i, a := range got {
		want := uint64(0)
		if i >= 6 {
			want = binomial(12, i)
		}
		if a != want {
			t.Fatalf("7 of 12: a_%d = %d, want %d", i, a, want)
		}
	}
}

func binomial(n, k int) uint64 {
	c := uint64(1)
	for i := 0; i < k; i++ {
		c = c * uint64(n-i) / uint64(i+1)
	}
	return c
}

// TestGateWitness: on random formulas and live sets, Witness holds exactly
// when Eval does, adds a quorum of the family that lies within live, and
// leaves out empty otherwise; at every gate it takes the first kids that
// hold, in formula order.
func TestGateWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		var pool []*Gate
		g := randomGate(rng, n, 1+rng.Intn(4), &pool)
		for round := 0; round < 16; round++ {
			live := bitset.FromWord(n, rng.Uint64()&(1<<uint(n)-1))
			out := bitset.New(n)
			ok := g.Witness(live, out)
			if ok != g.Eval(live) {
				t.Fatalf("trial %d: Witness %t on %v, Eval %t", trial, ok, live, !ok)
			}
			if !ok && !out.Empty() {
				t.Fatalf("trial %d: failed Witness added %v", trial, out)
			}
			if ok && (!out.SubsetOf(live) || !g.Eval(out)) {
				t.Fatalf("trial %d: witness %v on %v is not a live quorum", trial, out, live)
			}
		}
	}
	g := Any(All(Leaf(0), Leaf(1)), Of(2, Leaf(2), Leaf(3), Leaf(4)))
	for _, c := range []struct{ live, want []int }{
		{[]int{0, 1, 2, 3, 4}, []int{0, 1}},
		{[]int{0, 2, 3, 4}, []int{2, 3}},
		{[]int{1, 2, 4}, []int{2, 4}},
	} {
		out := bitset.New(5)
		if !g.Witness(bitset.FromIndices(5, c.live...), out) || !out.Equal(bitset.FromIndices(5, c.want...)) {
			t.Errorf("Witness on %v = %v, want %v", c.live, out, c.want)
		}
	}
}
