package epoch

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/hgrid"
	"hquorum/internal/htgrid"
	"hquorum/internal/quorum"
)

func gridParams(f Flavor, rows, cols int) Params {
	return Params{Flavor: f, Rows: rows, Cols: cols, Members: MemberRange(0, rows*cols)}
}

// costAwareSets lists every set a cost-aware pick of the family can
// return under some live set and pricing, as global IDs — for a joint
// config every union of a set of the new params with one of the old,
// which is what pickUnion composes.
func costAwareSets(t *testing.T, space int, read bool, cur Params, old *Params) []bitset.Set {
	t.Helper()
	family := func(p Params) []bitset.Set {
		pk, err := NewPickers(space, p)
		if err != nil {
			t.Fatal(err)
		}
		g, write := pk.gates()
		if !read {
			g = write
		}
		var out []bitset.Set
		for _, q := range g.Quorums(len(p.Members)) {
			global := bitset.New(space)
			q.ForEach(func(i int) { global.Add(int(p.Members[i])) })
			out = append(out, global)
		}
		return out
	}
	sets := family(cur)
	if old == nil {
		return sets
	}
	var joint []bitset.Set
	for _, a := range sets {
		for _, b := range family(*old) {
			joint = append(joint, a.Union(b))
		}
	}
	return joint
}

// writeQuorums enumerates the write quorums of a grid flavor from the
// construction itself (hgrid.FullLines, htgrid.EnumerateQuorums) — the
// reference the gates are checked against, not derived from them.
func writeQuorums(p Params) []bitset.Set {
	h := hgrid.Auto(p.Rows, p.Cols)
	if p.Flavor == FlavorHGrid {
		return h.FullLines()
	}
	return quorum.AllQuorums(htgrid.New(h))
}

// missesSome returns a pair (r, w) with r ∩ w = ∅, if any.
func missesSome(reads, writes []bitset.Set) (r, w bitset.Set, found bool) {
	for _, r := range reads {
		for _, w := range writes {
			if !r.Intersects(w) {
				return r, w, true
			}
		}
	}
	return bitset.Set{}, bitset.Set{}, false
}

// TestCostAwareReadsMeetEveryWrite is the safety argument for reads on
// write quorums, checked exhaustively: on 4x4, 6x4 and an asymmetric 5x3,
// every set the cost-aware read pick can return meets every write quorum
// — the enumerated ones of the construction and every set the cost-aware
// write pick can return — for h-grid and h-T-grid alike.
func TestCostAwareReadsMeetEveryWrite(t *testing.T) {
	for _, f := range []Flavor{FlavorHGrid, FlavorHTGrid} {
		for _, dims := range [][2]int{{4, 4}, {6, 4}, {5, 3}} {
			p := gridParams(f, dims[0], dims[1])
			n := dims[0] * dims[1]
			reads := costAwareSets(t, n, true, p, nil)
			for name, writes := range map[string][]bitset.Set{
				"enumerated":      writeQuorums(p),
				"cost-aware pick": costAwareSets(t, n, false, p, nil),
			} {
				if r, w, bad := missesSome(reads, writes); bad {
					t.Errorf("%v: cost-aware read %v misses %s write quorum %v", p, r, name, w)
				}
			}
		}
	}
}

// TestCostAwareReadsMeetEveryWriteJoint: the same under the handoff rule.
// While a config is joint a cost-aware read is the union of each side's
// cheapest read set; it must meet every write quorum of the old config
// and of the new one (a joint write contains one of each, so it follows).
func TestCostAwareReadsMeetEveryWriteJoint(t *testing.T) {
	const space = 16
	oldP := gridParams(FlavorHTGrid, 3, 3)
	newP := gridParams(FlavorHTGrid, 4, 4)
	for _, c := range []struct{ cur, old Params }{{newP, oldP}, {oldP, newP}} {
		reads := costAwareSets(t, space, true, c.cur, &c.old)
		for name, writes := range map[string][]bitset.Set{
			"old-config": costAwareSets(t, space, false, c.old, nil),
			"new-config": costAwareSets(t, space, false, c.cur, nil),
		} {
			if r, w, bad := missesSome(reads, writes); bad {
				t.Errorf("%v <- %v: joint cost-aware read %v misses %s write %v", c.cur, c.old, r, name, w)
			}
		}
	}
}

// TestHGridReadsExcludeFullLines proves the check above can fail: the
// h-grid's full-lines are not a coterie (two lines of different child
// rows are disjoint), so letting its reads ride write quorums — what the
// h-T-grid does — would break intersection, and its read family must not
// contain a bare full-line.
func TestHGridReadsExcludeFullLines(t *testing.T) {
	p := gridParams(FlavorHGrid, 4, 4)
	pk, err := NewPickers(16, p)
	if err != nil {
		t.Fatal(err)
	}
	lines := hgrid.Auto(4, 4).FullLines()
	if _, _, disjoint := missesSome(lines, lines); !disjoint {
		t.Fatal("every pair of 4x4 full-lines intersects; the negative test has lost its witness")
	}
	reads, writes := pk.gates()
	unsafe := quorum.Any(reads, writes).Quorums(16)
	if _, _, bad := missesSome(unsafe, lines); !bad {
		t.Fatal("reads on h-grid write quorums passed the intersection check; it cannot fail")
	}
	isLine := make(map[string]bool)
	for _, l := range lines {
		isLine[l.String()] = true
	}
	for _, r := range reads.Quorums(16) {
		if isLine[r.String()] {
			t.Fatalf("h-grid read family contains the bare full-line %v", r)
		}
	}
}

// wan3 is the benchmark's WAN shape: regions of 8/4/4 nodes, 200 µs
// inside a region and 10 ms between regions, placed on the 4x4 grid by
// PlaceGrid. It returns each grid position's region and the round-trip
// cost vector of a session in region 0.
func wan3(t *testing.T) (regionOf []int, cost []time.Duration) {
	t.Helper()
	raw := []int{0, 1, 2, 0, 1, 0, 0, 2, 1, 0, 0, 2, 0, 1, 2, 0}
	ms := 10 * time.Millisecond
	lat := wanMatrix(raw, 200*time.Microsecond, [][]time.Duration{{0, ms, ms}, {ms, 0, ms}, {ms, ms, 0}})
	ids, err := PlaceGrid(lat, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	regionOf = make([]int, 16)
	cost = make([]time.Duration, 16)
	for r := range ids {
		for c, id := range ids[r] {
			regionOf[r*4+c] = raw[id]
			cost[r*4+c] = 2 * lat[id][0] // node 0 sits in region 0
			if id == 0 {
				cost[r*4+c] = 400 * time.Microsecond
			}
		}
	}
	return regionOf, cost
}

// TestCostAwarePicksStayInRegion: on the wan3 topology, 1 000 rng seeds,
// both rounds of a cost-aware h-T-grid session stay inside region 0 every
// time. With every node live the cheapest quorum is unique — the top row,
// the one line that needs no cover — so that is what every seed returns;
// with a top-row node suspected the equally cheap five-member quorums
// tie, and the rng spreads them over more than one top-band line. The
// h-grid's four in-region lines always tie.
func TestCostAwarePicksStayInRegion(t *testing.T) {
	regionOf, cost := wan3(t)
	all := bitset.Universe(16)
	oneDown := bitset.Universe(16)
	oneDown.Remove(0)
	for _, c := range []struct {
		flavor    Flavor
		live      bitset.Set
		read      bool
		wantLines int // distinct quorums expected at least
	}{
		{FlavorHTGrid, all, true, 1},
		{FlavorHTGrid, all, false, 1},
		{FlavorHTGrid, oneDown, true, 2},
		{FlavorHTGrid, oneDown, false, 2},
		{FlavorHGrid, all, false, 2},
	} {
		st, err := NewStore(16, gridParams(c.flavor, 4, 4))
		if err != nil {
			t.Fatal(err)
		}
		distinct := make(map[string]bool)
		for seed := int64(0); seed < 1000; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pick := st.PickWriteCheapest
			if c.read {
				pick = st.PickReadCheapest
			}
			q, err := pick(rng, c.live, cost)
			if err != nil {
				t.Fatal(err)
			}
			if !q.SubsetOf(c.live) {
				t.Fatalf("%v: pick %v uses a suspected node", c.flavor, q)
			}
			q.ForEach(func(id int) {
				if regionOf[id] != 0 {
					t.Fatalf("%v read=%t seed %d: pick %v leaves region 0 at node %d (regions %v)",
						c.flavor, c.read, seed, q, id, regionOf)
				}
			})
			distinct[q.String()] = true
		}
		if len(distinct) < c.wantLines {
			t.Errorf("%v read=%t live=%v: %d distinct quorum(s) over 1000 seeds, want >= %d",
				c.flavor, c.read, c.live, len(distinct), c.wantLines)
		}
		if c.live.Equal(all) && c.flavor == FlavorHTGrid && len(distinct) != 1 {
			t.Errorf("%v read=%t: %d distinct cheapest quorums with every node live, want the one top line",
				c.flavor, c.read, len(distinct))
		}
	}
}

// TestCostAwareThresholdFlavors: the threshold flavors pick the nearest
// members, and a read rides the write quorum when that is the smaller
// one (W < R needs 2W > n, so write quorums already pairwise intersect).
func TestCostAwareThresholdFlavors(t *testing.T) {
	cost := make([]time.Duration, 9)
	for i := range cost {
		cost[i] = time.Duration(i+1) * time.Millisecond
	}
	rng := rand.New(rand.NewSource(3))
	live := bitset.Universe(9)
	for _, c := range []struct {
		p                   Params
		wantRead, wantWrite []int
	}{
		{Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)},
			[]int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}},
		{Params{Flavor: FlavorMajority, R: 2, W: 8, Members: MemberRange(0, 9)},
			[]int{0, 1}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{Params{Flavor: FlavorMajority, R: 5, W: 5, Members: MemberRange(0, 9)},
			[]int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}},
		// 2 of 3 subtrees, 2 of 3 leaves each: the nearest two subtrees.
		{Params{Flavor: FlavorHMaj, Rows: 3, RL: []int{2, 2}, WL: []int{2, 2}, Members: MemberRange(0, 9)},
			[]int{0, 1, 3, 4}, []int{0, 1, 3, 4}},
		{Params{Flavor: FlavorHTriang, Rows: 3, Members: MemberRange(0, 6)},
			[]int{0, 1, 3}, []int{0, 1, 3}},
	} {
		st, err := NewStore(9, c.p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := st.PickReadCheapest(rng, live, cost)
		if err != nil {
			t.Fatal(err)
		}
		w, err := st.PickWriteCheapest(rng, live, cost)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(r.Indices()) != fmt.Sprint(c.wantRead) || fmt.Sprint(w.Indices()) != fmt.Sprint(c.wantWrite) {
			t.Errorf("%v: cheapest read %v write %v, want %v and %v", c.p, r.Indices(), w.Indices(), c.wantRead, c.wantWrite)
		}
	}
	// No quorum among the live members: the typed error, not a panic.
	st, err := NewStore(9, Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PickWriteCheapest(rng, bitset.FromIndices(9, 0, 1, 2), cost); err != quorum.ErrNoQuorum {
		t.Fatalf("cheapest write from 3 of 9 live: %v, want ErrNoQuorum", err)
	}
}

// TestCostAwareJointPickSpansBothConfigs: pickUnion keeps the handoff
// rule for cost-aware picks — the result holds a quorum of each side.
func TestCostAwareJointPickSpansBothConfigs(t *testing.T) {
	oldP := Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}
	newP := gridParams(FlavorHTGrid, 4, 4)
	st, err := NewStore(16, oldP)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Install(Config{Epoch: 2, Cur: newP, Old: &oldP}); !ok || err != nil {
		t.Fatalf("install joint: ok=%v err=%v", ok, err)
	}
	_, cost := wan3(t)
	rng := rand.New(rand.NewSource(7))
	for _, pick := range []func(*rand.Rand, bitset.Set, []time.Duration) (bitset.Set, error){st.PickReadCheapest, st.PickWriteCheapest} {
		q, err := pick(rng, bitset.Universe(16), cost)
		if err != nil {
			t.Fatal(err)
		}
		oldSide := 0
		for id := 0; id < 9; id++ {
			if q.Contains(id) {
				oldSide++
			}
		}
		if oldSide < 5 || !htgrid.Auto(4, 4).Available(q) {
			t.Fatalf("joint cost-aware pick %v lacks an old majority (%d of 9) or a new h-T-grid quorum", q, oldSide)
		}
	}
}

// TestCostBlindPicksUnchanged pins the random picks: a seeded sequence of
// cost-blind PickRead/PickWrite draws, all-live and with two suspects —
// Gate.Pick on the read and write families, and the h-T-grid's write
// sampler — hashes to a fixed value, whatever the cost-aware picks do.
// LAN workloads, chaos schedules and kvd defaults all depend on these
// draws byte for byte.
func TestCostBlindPicksUnchanged(t *testing.T) {
	for _, c := range []struct {
		p    Params
		want uint64
	}{
		{gridParams(FlavorHTGrid, 4, 4), 0xf4e9901da88a5718},
		{gridParams(FlavorHGrid, 4, 4), 0x836efd9a02d81af},
		{gridParams(FlavorHTGrid, 5, 3), 0xa8faffbe686a5654},
		{Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}, 0x7a5768c2fbc12653},
		{Params{Flavor: FlavorHMaj, Rows: 3, RL: []int{2, 2}, WL: []int{2, 2}, Members: []cluster.NodeID{3, 5, 7, 11, 13, 17, 19, 23, 29}}, 0xefa0b892836275ac},
		{Params{Flavor: FlavorHTriang, Rows: 4, Members: MemberRange(0, 10)}, 0x511485c3b8b38468},
	} {
		const space = 32
		st, err := NewStore(space, c.p)
		if err != nil {
			t.Fatal(err)
		}
		susp := bitset.Universe(space)
		susp.Remove(int(c.p.Members[1]))
		susp.Remove(int(c.p.Members[len(c.p.Members)-2]))
		rng := rand.New(rand.NewSource(42))
		h := fnv.New64a()
		for i := 0; i < 400; i++ {
			live := bitset.Universe(space)
			if i%4 >= 2 {
				live = susp
			}
			pick := st.PickRead
			if i%2 == 1 {
				pick = st.PickWrite
			}
			q, err := pick(rng, live)
			if err != nil {
				t.Fatal(err)
			}
			st.CoversWrite(q) // what rkv asks after a read pick: must draw nothing
			fmt.Fprint(h, q.Indices())
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%v: seeded cost-blind pick sequence hashes to %#x, want %#x", c.p, got, c.want)
		}
	}
}

var pickSink bitset.Set

// BenchmarkPickCheapest prices what a pick-cache miss pays on a
// cost-aware session — one exact cheapest pick where the replaced
// sampling drew eight random quorums (the random/* rows, for scale) — on
// the benchmark's 4x4 and on 8x8, reads and writes, with every node live
// and with two suspects. The top half of the grid is the near region.
func BenchmarkPickCheapest(b *testing.B) {
	for _, side := range []int{4, 8} {
		n := side * side
		st, err := NewStore(n, gridParams(FlavorHTGrid, side, side))
		if err != nil {
			b.Fatal(err)
		}
		cost := make([]time.Duration, n)
		for i := range cost {
			cost[i] = 400 * time.Microsecond
			if i >= n/2 {
				cost[i] = 20 * time.Millisecond
			}
		}
		susp := bitset.Universe(n)
		susp.Remove(1)
		susp.Remove(n/2 + 2)
		for _, live := range []struct {
			name string
			set  bitset.Set
		}{{"full", bitset.Universe(n)}, {"susp2", susp}} {
			for _, kind := range []struct {
				name   string
				cheap  func(*rand.Rand, bitset.Set, []time.Duration) (bitset.Set, error)
				random func(*rand.Rand, bitset.Set) (bitset.Set, error)
			}{{"read", st.PickReadCheapest, st.PickRead}, {"write", st.PickWriteCheapest, st.PickWrite}} {
				name := fmt.Sprintf("%dx%d/%s/%s", side, side, kind.name, live.name)
				b.Run("cheapest/"+name, func(b *testing.B) {
					b.ReportAllocs()
					rng := rand.New(rand.NewSource(1))
					for i := 0; i < b.N; i++ {
						q, err := kind.cheap(rng, live.set, cost)
						if err != nil {
							b.Fatal(err)
						}
						pickSink = q
					}
				})
				b.Run("random8/"+name, func(b *testing.B) {
					b.ReportAllocs()
					rng := rand.New(rand.NewSource(1))
					for i := 0; i < b.N; i++ {
						for s := 0; s < 8; s++ {
							q, err := kind.random(rng, live.set)
							if err != nil {
								b.Fatal(err)
							}
							pickSink = q
						}
					}
				})
			}
		}
	}
}
