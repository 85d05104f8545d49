package quorum

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"hquorum/internal/bitset"
)

// Gate is a quorum family written as a threshold formula: a process, or
// "at least need of kids hold". Conjunction (need = len(kids)),
// disjunction (need = 1) and vote thresholds are the same node, so every
// construction of this repository but the two graph systems — row-covers,
// full-lines, the h-T-grid's line plus cover, the h-triang's three
// methods, majorities (plain, tie-break, k-majority and hierarchical),
// HQS, the crumbling wall, M-Grid — compiles to one tree: one evaluator
// prices them all, one walk (Pick) draws their random quorums, and one
// decision diagram (TransversalCounts) gives their exact availability.
//
// Cheapest is exact when the kids of every gate with need > 1 range over
// disjoint processes (a member is then never paid for twice); every
// compiler in this repository keeps that rule but M-Grid's, whose rows
// and columns share servers — nothing prices M-Grid, only Eval and Pick
// run on it. Alternatives under a disjunction may overlap freely.
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

// Witness adds to out one quorum of the family within live — at every
// gate the first need kids that hold, in formula order — and reports
// whether live contains one; out is untouched when it does not. It is
// deterministic and draws no randomness.
func (g *Gate) Witness(live, out bitset.Set) bool {
	if !g.Eval(live) {
		return false
	}
	if g.id >= 0 {
		out.Add(g.id)
		return true
	}
	need := g.need
	for _, k := range g.kids {
		if need > 0 && k.Witness(live, out) {
			need--
		}
	}
	return true
}

// Pick adds to out one quorum of the family within live drawn at random
// — at every gate need of the kids that hold, chosen uniformly — and
// reports whether live contains one; out is untouched when it does not.
// A conjunction takes every kid and draws nothing; any other gate draws
// its kids by a partial Fisher–Yates over the ones that hold, so a
// disjunction costs one rng.Intn. This is the paper's §4.3 strategy,
// "randomly select in each level the elements used", on any formula.
func (g *Gate) Pick(rng *rand.Rand, live, out bitset.Set) bool {
	if !g.Eval(live) {
		return false
	}
	g.pick(rng, live, out)
	return true
}

// pick is Pick on a formula known to hold on live.
func (g *Gate) pick(rng *rand.Rand, live, out bitset.Set) {
	if g.id >= 0 {
		out.Add(g.id)
		return
	}
	if g.need == len(g.kids) {
		for _, k := range g.kids {
			k.pick(rng, live, out)
		}
		return
	}
	var buf [16]*Gate
	ok := buf[:0]
	for _, k := range g.kids {
		if k.Eval(live) {
			ok = append(ok, k)
		}
	}
	for i := 0; i < g.need; i++ {
		j := i + rng.Intn(len(ok)-i)
		ok[i], ok[j] = ok[j], ok[i]
	}
	for _, k := range ok[:g.need] {
		k.pick(rng, live, out)
	}
}

// Lazy holds a construction's quorum family as one Gate, built once on
// first use (not by the constructor), so concurrent readers — pickers,
// the availability queries — share one build. The zero value is ready to
// use.
type Lazy struct {
	once sync.Once
	gate *Gate
}

// Gate returns the family, calling build the first time.
func (l *Lazy) Gate(build func() *Gate) *Gate {
	l.once.Do(func() { l.gate = build() })
	return l.gate
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

// CheckPick cross-checks Pick against the formula's enumerated quorums
// over n processes: over trials random live sets Pick must fail exactly
// when Eval does, leaving out untouched, and otherwise add exactly one
// listed quorum that lies within live; on the fully live set, 200 draws
// per listed quorum must reach every one of them.
func CheckPick(g *Gate, n int, rng *rand.Rand, trials int) error {
	quorums := g.Quorums(n)
	listed := make(map[string]bool, len(quorums))
	for _, q := range quorums {
		listed[q.String()] = true
	}
	for t := 0; t < trials; t++ {
		live := bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(100) < 75 {
				live.Add(i)
			}
		}
		out := bitset.New(n)
		ok := g.Pick(rng, live, out)
		if ok != g.Eval(live) {
			return fmt.Errorf("quorum: Pick ok=%t on live set %v, Eval says %t", ok, live, !ok)
		}
		if !ok && !out.Empty() {
			return fmt.Errorf("quorum: failed Pick on %v added %v", live, out)
		}
		if ok && (!out.SubsetOf(live) || !listed[out.String()]) {
			return fmt.Errorf("quorum: picked %v on %v is no listed quorum within live", out, live)
		}
	}
	all := bitset.Universe(n)
	seen := make(map[string]bool, len(quorums))
	for d := 0; d < 200*len(quorums) && len(seen) < len(quorums); d++ {
		out := bitset.New(n)
		if !g.Pick(rng, all, out) || !listed[out.String()] {
			return fmt.Errorf("quorum: pick %v on the fully live set is no listed quorum", out)
		}
		seen[out.String()] = true
	}
	if len(seen) < len(quorums) {
		return fmt.Errorf("quorum: %d draws on the fully live set reached %d of %d quorums",
			200*len(quorums), len(seen), len(quorums))
	}
	return nil
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
