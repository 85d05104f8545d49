package epoch

import (
	"math/rand"
	"testing"

	"hquorum/internal/bitset"
	"hquorum/internal/hgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/quorum"
)

// coverFlavors are the configurations the covering predicate is checked
// on: symmetric and R < W majorities, hmaj, the h-grid at 3x3 and 4x4,
// the h-T-grid at 4x4 and the 15-node triangle.
func coverFlavors() []Params {
	return []Params{
		{Flavor: FlavorMajority, Members: MemberRange(0, 9)},
		{Flavor: FlavorMajority, R: 2, W: 8, Members: MemberRange(0, 9)},
		{Flavor: FlavorHMaj, Rows: 3, RL: []int{2, 2}, WL: []int{2, 2}, Members: MemberRange(0, 9)},
		gridParams(FlavorHGrid, 3, 3),
		gridParams(FlavorHGrid, 4, 4),
		gridParams(FlavorHTGrid, 4, 4),
		{Flavor: FlavorHTriang, Rows: 5, Members: MemberRange(0, 15)},
	}
}

// TestGateEvalMatchesQuorums: for both compiled gates of every live-path
// flavor, Eval(s) holds exactly when s contains one of the gate's
// enumerated quorums — over every subset of the (at most 16) members.
func TestGateEvalMatchesQuorums(t *testing.T) {
	for _, p := range coverFlavors() {
		n := len(p.Members)
		pk, err := NewPickers(n, p)
		if err != nil {
			t.Fatal(err)
		}
		read, write := pk.gates()
		for name, g := range map[string]*quorum.Gate{"read": read, "write": write} {
			var words []uint64
			for _, q := range g.Quorums(n) {
				words = append(words, q.Word())
			}
			for w := uint64(0); w < 1<<uint(n); w++ {
				want := false
				for _, q := range words {
					if q&^w == 0 {
						want = true
						break
					}
				}
				if got := g.Eval(bitset.FromWord(n, w)); got != want {
					t.Fatalf("%v %s gate: Eval(%#x) = %t, enumeration says %t", p, name, w, got, want)
				}
			}
		}
	}
}

func mustStore(t *testing.T, space int, p Params) *Store {
	t.Helper()
	st, err := NewStore(space, p)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCoversWrite pins which read picks contain a write quorum: no
// row-cover of the h-grid or of a cost-blind h-T-grid does (so their
// reads keep the write-back), while every h-triang pick, every R >= W
// threshold pick and the cost-aware h-T-grid pick on the benchmark's
// 8/4/4 WAN (the top line) do.
func TestCoversWrite(t *testing.T) {
	for _, p := range []Params{gridParams(FlavorHGrid, 3, 3), gridParams(FlavorHGrid, 4, 4), gridParams(FlavorHTGrid, 4, 4)} {
		st := mustStore(t, len(p.Members), p)
		for _, rc := range hgrid.Auto(p.Rows, p.Cols).RowCovers() {
			if st.CoversWrite(rc) {
				t.Errorf("%v: row-cover %v covers a write quorum", p, rc)
			}
		}
	}
	// Cost-blind read picks of the grids are row-covers; seeded draws agree.
	rng := rand.New(rand.NewSource(11))
	for _, p := range []Params{gridParams(FlavorHGrid, 4, 4), gridParams(FlavorHTGrid, 4, 4)} {
		st := mustStore(t, 16, p)
		for i := 0; i < 2000; i++ {
			q, err := st.PickRead(rng, bitset.Universe(16))
			if err != nil {
				t.Fatal(err)
			}
			if st.CoversWrite(q) {
				t.Fatalf("%v: cost-blind read pick %v covers a write quorum", p, q)
			}
		}
	}

	tri := Params{Flavor: FlavorHTriang, Rows: 5, Members: MemberRange(0, 15)}
	st := mustStore(t, 15, tri)
	for _, q := range quorum.AllQuorums(htriang.New(5)) {
		if !st.CoversWrite(q) {
			t.Errorf("%v: quorum %v does not cover a write quorum", tri, q)
		}
	}
	for _, p := range []Params{
		{Flavor: FlavorMajority, Members: MemberRange(0, 9)},
		{Flavor: FlavorMajority, R: 7, W: 5, Members: MemberRange(0, 9)},
		{Flavor: FlavorHMaj, Rows: 3, RL: []int{2, 2}, WL: []int{2, 2}, Members: MemberRange(0, 9)},
		{Flavor: FlavorHMaj, Rows: 3, RL: []int{3, 2}, WL: []int{2, 2}, Members: MemberRange(0, 9)},
	} {
		st := mustStore(t, 9, p)
		for i := 0; i < 2000; i++ {
			live := bitset.Universe(9)
			if i%2 == 1 {
				live.Remove(rng.Intn(9))
			}
			q, err := st.PickRead(rng, live)
			if err != nil {
				t.Fatal(err)
			}
			if !st.CoversWrite(q) {
				t.Fatalf("%v: read pick %v (R >= W) does not cover a write quorum", p, q)
			}
		}
	}
	// R < W: a read threshold is too small to hold a write quorum.
	asym := mustStore(t, 9, Params{Flavor: FlavorMajority, R: 2, W: 8, Members: MemberRange(0, 9)})
	if q, _ := asym.PickRead(rng, bitset.Universe(9)); asym.CoversWrite(q) {
		t.Errorf("R=2 W=8: read pick %v covers a write quorum", q)
	}

	_, cost := wan3(t)
	hT := mustStore(t, 16, gridParams(FlavorHTGrid, 4, 4))
	q, err := hT.PickReadCheapest(rng, bitset.Universe(16), cost)
	if err != nil {
		t.Fatal(err)
	}
	if !hT.CoversWrite(q) {
		t.Errorf("cost-aware h-T-grid read pick %v on the 8/4/4 WAN does not cover a write quorum", q)
	}
	// The h-grid's cost-aware reads stay on row-covers.
	hG := mustStore(t, 16, gridParams(FlavorHGrid, 4, 4))
	if q, _ := hG.PickReadCheapest(rng, bitset.Universe(16), cost); hG.CoversWrite(q) {
		t.Errorf("cost-aware h-grid read pick %v covers a write quorum", q)
	}
}

// TestCoversWriteJoint: while a config is joint (majority-9 handing over
// to an h-grid 4x4, the rc/maj9-h44 chaos shape) a set covers only when
// it holds a write quorum of both sides.
func TestCoversWriteJoint(t *testing.T) {
	oldP := Params{Flavor: FlavorMajority, Members: MemberRange(0, 9)}
	newP := gridParams(FlavorHGrid, 4, 4)
	st := mustStore(t, 16, oldP)
	if ok, err := st.Install(Config{Epoch: 2, Cur: newP, Old: &oldP}); !ok || err != nil {
		t.Fatalf("install joint: ok=%v err=%v", ok, err)
	}
	line := hgrid.Auto(4, 4).FullLines()[0]      // a write quorum of the new side
	maj := bitset.FromIndices(16, 0, 1, 4, 5, 8) // an old-side majority holding no full-line
	if !mustStore(t, 16, newP).CoversWrite(line) || !mustStore(t, 16, oldP).CoversWrite(maj) {
		t.Fatalf("witnesses %v / %v are not write quorums of their own side", line, maj)
	}
	oldSide := 0
	line.ForEach(func(id int) {
		if id < 9 {
			oldSide++
		}
	})
	if oldSide >= 5 {
		t.Fatalf("full-line %v holds an old-side majority; the test has lost its witness", line)
	}
	for name, c := range map[string]struct {
		set  bitset.Set
		want bool
	}{
		"new side only": {line, false},
		"old side only": {maj, false},
		"both sides":    {line.Union(maj), true},
	} {
		if got := st.CoversWrite(c.set); got != c.want {
			t.Errorf("joint, %s (%v): CoversWrite = %t, want %t", name, c.set, got, c.want)
		}
	}
	if ok, err := st.Install(Config{Epoch: 3, Cur: newP}); !ok || err != nil {
		t.Fatalf("install final: ok=%v err=%v", ok, err)
	}
	if !st.CoversWrite(line) {
		t.Errorf("after the handoff the new side's line %v must cover on its own", line)
	}
}
