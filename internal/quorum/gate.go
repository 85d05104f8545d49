package quorum

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
)

// Gate is a quorum family written as a threshold formula: a process, or
// "at least need of kids hold". Conjunction (need = len(kids)),
// disjunction (need = 1) and vote thresholds are the same node, so every
// construction of this repository — row-covers, full-lines, the h-T-grid's
// line plus cover, the h-triang's three methods, (hierarchical) majorities
// — compiles to one tree: one evaluator prices them all, and one lowering
// (Circuit) gives the availability sweeps their 64-live-sets-at-once
// program.
//
// Cheapest is exact when the kids of every gate with need > 1 range over
// disjoint processes (a member is then never paid for twice); every
// compiler in this repository keeps that rule. Alternatives under a
// disjunction may overlap freely.
type Gate struct {
	id   int // process ID of a leaf, -1 for a gate
	need int
	kids []*Gate
}

// Leaf is the formula "process id is in the quorum".
func Leaf(id int) *Gate { return &Gate{id: id} }

// Of holds when at least need of kids hold. Kids that always hold count
// toward need and kids that never can are dropped, so both collapse at
// build time: Of(0) is the constant true, a gate left needing more kids
// than it has is the constant false.
func Of(need int, kids ...*Gate) *Gate {
	keep := make([]*Gate, 0, len(kids))
	for _, k := range kids {
		switch {
		case k.id < 0 && k.need == 0:
			need--
		case k.id >= 0 || k.need <= len(k.kids):
			keep = append(keep, k)
		}
	}
	switch {
	case need <= 0:
		return &Gate{id: -1}
	case need == 1 && len(keep) == 1:
		return keep[0]
	}
	return &Gate{id: -1, need: need, kids: keep}
}

// All holds when every kid holds.
func All(kids ...*Gate) *Gate { return Of(len(kids), kids...) }

// Any holds when some kid holds.
func Any(kids ...*Gate) *Gate { return Of(1, kids...) }

// Eval reports whether the formula holds on live: whether live contains
// a quorum of the family.
func (g *Gate) Eval(live bitset.Set) bool {
	if g.id >= 0 {
		return live.Contains(g.id)
	}
	need := g.need
	for i, k := range g.kids {
		if need == 0 || len(g.kids)-i < need {
			break
		}
		if k.Eval(live) {
			need--
		}
	}
	return need == 0
}

// Circuit lowers the formula to a bit-sliced program over n input lanes,
// lane j carrying process j: bit s of its result is Eval on the live set
// formed by bit s of every lane, so one evaluation answers 64 live sets.
// The leaf kids of a conjunction or disjunction collapse into one lane
// mask, any other threshold unrolls "at least t of the first i kids", and
// identical subformulas share one op. It is nil when n exceeds 64.
func (g *Gate) Circuit(n int) *analysis.Circuit {
	if n > 64 {
		return nil
	}
	b := analysis.NewCircuitBuilder(n)
	memo := make(map[*Gate]analysis.Ref)
	var lower func(g *Gate) analysis.Ref
	lower = func(g *Gate) analysis.Ref {
		if g.id >= 0 {
			return b.Lane(g.id)
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var r analysis.Ref
		switch {
		case g.need > len(g.kids):
			r = analysis.False
		case g.need == len(g.kids) || g.need == 1:
			fold, join := b.AnyOf, b.Or
			if g.need == len(g.kids) {
				fold, join = b.AllOf, b.And
			}
			var mask uint64
			var rest []analysis.Ref
			for _, k := range g.kids {
				if k.id >= 0 && k.id < n { // out of range: Lane panics
					mask |= 1 << uint(k.id)
				} else {
					rest = append(rest, lower(k))
				}
			}
			r = fold(mask)
			for _, x := range rest {
				r = join(r, x)
			}
		default:
			// at[t]: at least t of the kids lowered so far hold (at[t > 0]
			// starts as the zero Ref, False).
			at := make([]analysis.Ref, g.need+1)
			at[0] = analysis.True
			for _, k := range g.kids {
				x := lower(k)
				for t := g.need; t >= 1; t-- {
					at[t] = b.Or(at[t], b.And(x, at[t-1]))
				}
			}
			r = at[g.need]
		}
		memo[g] = r
		return r
	}
	return b.Build(lower(g))
}

// unpriced is the price of a formula that cannot hold.
const unpriced = math.MaxInt64

// pricing is one Cheapest evaluation: the processes that may be used (live
// and costing at most limit) and how member prices combine — their total,
// or the dearest one.
type pricing struct {
	live  bitset.Set
	cost  []int64
	limit int64
	total bool
	vals  []int64 // scratch stack of kid prices, one frame per open gate
}

// price returns the least price at which g holds, or unpriced.
func (p *pricing) price(g *Gate) int64 {
	if g.id >= 0 {
		if !p.live.Contains(g.id) || p.cost[g.id] > p.limit {
			return unpriced
		}
		return p.cost[g.id]
	}
	if g.need == 0 {
		return 0
	}
	if g.need > len(g.kids) {
		return unpriced
	}
	base := len(p.vals)
	for _, k := range g.kids {
		v := p.price(k)
		p.vals = append(p.vals, v)
	}
	vals := p.vals[base:]
	slices.Sort(vals)
	v := vals[g.need-1]
	if v != unpriced && p.total {
		v = 0
		for _, x := range vals[:g.need] {
			v += x
		}
	}
	p.vals = p.vals[:base]
	return v
}

// emit adds to out the members of a cheapest way to make g hold: at every
// gate the need cheapest kids, equally priced kids in rng's order.
func (p *pricing) emit(g *Gate, rng *rand.Rand, out bitset.Set) {
	if g.id >= 0 {
		out.Add(g.id)
		return
	}
	if g.need == 0 {
		return
	}
	type priced struct {
		v int64
		k *Gate
	}
	kids := make([]priced, len(g.kids))
	for i, k := range g.kids {
		kids[i] = priced{p.price(k), k}
	}
	rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
	slices.SortStableFunc(kids, func(a, b priced) int { return cmp.Compare(a.v, b.v) })
	for _, c := range kids[:g.need] {
		p.emit(c.k, rng, out)
	}
}

// Cheapest returns the quorum of the family that is cheapest to wait for:
// among the ways to make g hold with live processes it minimises the
// dearest member (a round ends when its slowest member answers), then the
// total (fewer and nearer members), and lets rng choose among what is
// still tied. cost prices every process and must be non-negative; the
// result has capacity len(cost). ok is false when live holds no quorum.
func (g *Gate) Cheapest(rng *rand.Rand, live bitset.Set, cost []int64) (q bitset.Set, ok bool) {
	p := pricing{live: live, cost: cost, limit: unpriced - 1}
	worst := p.price(g)
	if worst == unpriced {
		return bitset.Set{}, false
	}
	p.limit, p.total = worst, true
	q = bitset.New(len(cost))
	p.emit(g, rng, q)
	return q, true
}

// Quorums lists every set Cheapest can return for some live set and
// pricing — at each gate, each choice of need kids — over n processes,
// deduplicated. The count is exponential; it is meant for exhaustive
// intersection tests on small configurations.
func (g *Gate) Quorums(n int) []bitset.Set {
	seen := make(map[string]bool)
	var out []bitset.Set
	for _, q := range g.quorums(n) {
		if k := q.String(); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

func (g *Gate) quorums(n int) []bitset.Set {
	if g.id >= 0 {
		return []bitset.Set{bitset.FromIndices(n, g.id)}
	}
	// choose(i, need) lists the unions of one quorum from each of need
	// kids drawn from kids[i:].
	var choose func(i, need int) []bitset.Set
	choose = func(i, need int) []bitset.Set {
		if need == 0 {
			return []bitset.Set{bitset.New(n)}
		}
		if len(g.kids)-i < need {
			return nil
		}
		out := choose(i+1, need)
		rest := choose(i+1, need-1)
		for _, a := range g.kids[i].quorums(n) {
			for _, b := range rest {
				out = append(out, a.Union(b))
			}
		}
		return out
	}
	return choose(0, g.need)
}

// CheckCheapest cross-checks a compiled family against its enumerated
// quorums: over trials random live sets and random prices drawn from a
// few values (so ties are common), Cheapest must fail exactly when no
// listed quorum is live, return a live superset of a listed quorum, and
// match the brute-force minimum of (dearest member, total) over them.
func CheckCheapest(g *Gate, quorums []bitset.Set, n int, rng *rand.Rand, trials int) error {
	score := func(q bitset.Set, cost []int64) (worst, total int64) {
		q.ForEach(func(i int) {
			total += cost[i]
			worst = max(worst, cost[i])
		})
		return worst, total
	}
	for t := 0; t < trials; t++ {
		live := bitset.New(n)
		cost := make([]int64, n)
		for i := 0; i < n; i++ {
			if rng.Intn(100) < 75 {
				live.Add(i)
			}
			cost[i] = int64(rng.Intn(4)) * 10
		}
		bestWorst, bestTotal := int64(unpriced), int64(unpriced)
		for _, q := range quorums {
			if !q.SubsetOf(live) {
				continue
			}
			if w, s := score(q, cost); w < bestWorst || (w == bestWorst && s < bestTotal) {
				bestWorst, bestTotal = w, s
			}
		}
		got, ok := g.Cheapest(rng, live, cost)
		if ok != (bestWorst != unpriced) {
			return fmt.Errorf("quorum: Cheapest ok=%t on live set %v, enumeration says %t", ok, live, !ok)
		}
		if !ok {
			continue
		}
		if !got.SubsetOf(live) {
			return fmt.Errorf("quorum: cheapest set %v not within live %v", got, live)
		}
		within := false
		for _, q := range quorums {
			if q.SubsetOf(got) {
				within = true
				break
			}
		}
		if !within {
			return fmt.Errorf("quorum: cheapest set %v contains no quorum", got)
		}
		if w, s := score(got, cost); w != bestWorst || s != bestTotal {
			return fmt.Errorf("quorum: cheapest set %v costs (%d, %d), brute force finds (%d, %d) on live %v prices %v",
				got, w, s, bestWorst, bestTotal, live, cost)
		}
	}
	return nil
}
