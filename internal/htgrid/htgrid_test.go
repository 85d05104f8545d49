package htgrid

import (
	"math"
	"math/rand"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/hgrid"
	"hquorum/internal/quorum"
)

// TestPaperTable1HTGrid reproduces the h-T-grid column of Table 1 by exact
// subset enumeration.
func TestPaperTable1HTGrid(t *testing.T) {
	configs := []struct {
		name string
		sys  *System
		want map[float64]float64
	}{
		{"3x3", Auto(3, 3), map[float64]float64{
			0.1: 0.015213, 0.2: 0.098585, 0.3: 0.259783, 0.5: 0.667969}},
		{"4x4", Auto(4, 4), map[float64]float64{
			0.1: 0.005361, 0.2: 0.063866, 0.3: 0.225066, 0.5: 0.706604}},
		{"5x5", Auto(5, 5), map[float64]float64{
			0.1: 0.001621, 0.2: 0.036300, 0.3: 0.176290, 0.5: 0.708871}},
		{"4x6", Auto(6, 4), map[float64]float64{
			0.1: 0.000611, 0.2: 0.016690, 0.3: 0.104402, 0.5: 0.598435}},
	}
	for _, cfg := range configs {
		counts := analysis.TransversalCounts(cfg.sys)
		for p, want := range cfg.want {
			got := analysis.Failure(counts, p)
			// Tolerance 1.1e-6: the paper's own Tables 1 and 3 disagree in
			// the last printed digit for the 5x5 system at p=0.5
			// (0.708871 vs 0.708872; we compute 0.7088715...).
			if math.Abs(got-want) > 1.1e-6 {
				t.Errorf("%s p=%.1f: F = %.6f, paper %.6f", cfg.name, p, got, want)
			}
		}
	}
}

// TestHTGridNeverWorseThanHGrid verifies §4.3's claim that the h-T-grid's
// availability cannot be worse than the h-grid's, exactly up to 64
// processes (the 7×9 grid is the largest diagram of the test suite).
func TestHTGridNeverWorseThanHGrid(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 4}, {3, 4}, {4, 3}, {5, 5}, {6, 6}, {8, 8}, {7, 9}} {
		h := hgrid.Auto(dims[0], dims[1])
		tg := New(h)
		rw := hgrid.NewRW(h)
		tgCounts := analysis.TransversalCounts(tg)
		rwCounts := analysis.TransversalCounts(rw)
		for _, p := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
			ft, fr := analysis.Failure(tgCounts, p), analysis.Failure(rwCounts, p)
			if ft > fr+1e-12 {
				t.Errorf("%dx%d p=%.2f: h-T-grid F %.9f worse than h-grid %.9f", dims[0], dims[1], p, ft, fr)
			}
		}
	}
}

// TestLemma41Intersection checks Lemma 4.1 (any two h-T-grid quorums
// intersect) exhaustively on small hierarchies.
func TestLemma41Intersection(t *testing.T) {
	for _, sys := range []*System{Auto(3, 3), Auto(2, 3), Auto(4, 2), Auto(4, 4)} {
		if err := quorum.CheckPairwiseIntersection(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

// TestTheorem41 verifies Theorem 4.1 directly in both orientations: a
// partial row-cover with respect to full-line L intersects every full-line
// M none of whose elements fall on the removed side of L's boundary.
func TestTheorem41(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {3, 3}} {
		h := hgrid.Auto(dims[0], dims[1])
		lines := h.FullLines()
		covers := h.RowCovers()
		for _, l := range lines {
			bottom := h.MaxBottomRow(l)
			top := h.MinTopRow(l)
			for _, rc := range covers {
				prcAbove := bitset.New(h.N())
				prcBelow := bitset.New(h.N())
				rc.ForEach(func(id int) {
					if h.RowOf(id) <= bottom {
						prcAbove.Add(id)
					}
					if h.RowOf(id) >= top {
						prcBelow.Add(id)
					}
				})
				for _, m := range lines {
					if h.MaxBottomRow(m) <= bottom && !prcAbove.Intersects(m) {
						t.Fatalf("above-cover %v (wrt line %v, bottom %d) misses line %v", prcAbove, l, bottom, m)
					}
					if h.MinTopRow(m) >= top && !prcBelow.Intersects(m) {
						t.Fatalf("below-cover %v (wrt line %v, top %d) misses line %v", prcBelow, l, top, m)
					}
				}
			}
		}
	}
}

// TestAvailabilityConsistency checks Available against the enumerated
// quorums on every live set, in both orientations, on Auto and flat
// hierarchies.
func TestAvailabilityConsistency(t *testing.T) {
	var hs []*hgrid.Hierarchy
	for _, dims := range [][2]int{{3, 3}, {2, 4}, {4, 2}, {4, 4}, {3, 5}, {5, 3}, {6, 2}, {5, 4}, {4, 5}} {
		hs = append(hs, hgrid.Auto(dims[0], dims[1]))
	}
	hs = append(hs, hgrid.Flat(3, 3), hgrid.Flat(4, 3), hgrid.Flat(2, 5))
	for _, h := range hs {
		for _, o := range []Orientation{OrientAboveLine, OrientBelowLine} {
			sys := NewOriented(h, o)
			if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
				t.Errorf("%s/l=%d/o%d: %v", sys.Name(), h.Levels(), o, err)
			}
		}
	}
}

func TestPickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sys := range []*System{Auto(3, 3), Auto(4, 4)} {
		if err := quorum.CheckPickConsistency(sys, rng, 400); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

// TestFlatPickConsistency checks the picks of the flat grid's read-write
// quorums and of the flat T-grid in both orientations.
func TestFlatPickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sys := range []quorum.System{
		hgrid.NewRW(hgrid.Flat(3, 3)),
		NewOriented(hgrid.Flat(3, 3), OrientBelowLine),
		NewOriented(hgrid.Flat(3, 4), OrientAboveLine),
	} {
		if err := quorum.CheckPickConsistency(sys, rng, 400); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

func TestQuorumSizes(t *testing.T) {
	sys := Auto(4, 4)
	if sys.MinQuorumSize() != 4 || sys.MaxQuorumSize() != 7 {
		t.Fatalf("sizes (%d,%d), want (4,7)", sys.MinQuorumSize(), sys.MaxQuorumSize())
	}
	minSeen, maxSeen := 100, 0
	sys.EnumerateQuorums(func(q bitset.Set) bool {
		c := q.Count()
		if c < minSeen {
			minSeen = c
		}
		if c > maxSeen {
			maxSeen = c
		}
		return true
	})
	if minSeen != 4 || maxSeen != 7 {
		t.Fatalf("enumerated sizes (%d,%d), want (4,7)", minSeen, maxSeen)
	}
}

// TestFlatQuorumSizes: the flat grid's read-write quorums and T-grid
// quorums have the declared sizes, and these match the enumerated ones.
func TestFlatQuorumSizes(t *testing.T) {
	rw := hgrid.NewRW(hgrid.Flat(4, 4))
	if rw.MinQuorumSize() != 7 || rw.MaxQuorumSize() != 7 {
		t.Fatalf("flat RW sizes (%d,%d), want (7,7)", rw.MinQuorumSize(), rw.MaxQuorumSize())
	}
	for _, sys := range []quorum.System{hgrid.NewRW(hgrid.Flat(3, 4)), NewOriented(hgrid.Flat(3, 4), OrientBelowLine)} {
		c, err := quorum.FromSystem(sys)
		if err != nil {
			t.Fatal(err)
		}
		if c.MinQuorumSize() != sys.MinQuorumSize() || c.MaxQuorumSize() != sys.MaxQuorumSize() {
			t.Errorf("%s: declared (%d,%d), enumerated (%d,%d)", sys.Name(),
				sys.MinQuorumSize(), sys.MaxQuorumSize(), c.MinQuorumSize(), c.MaxQuorumSize())
		}
	}
}

// TestTGridQuorumCount: the flat T-grid (a full row plus one element of
// every row below it) over R×C has Σ_r C^(R−1−r) quorums.
func TestTGridQuorumCount(t *testing.T) {
	n := 0
	NewOriented(hgrid.Flat(3, 2), OrientBelowLine).EnumerateQuorums(func(bitset.Set) bool { n++; return true })
	if n != 4+2+1 {
		t.Fatalf("3x2 T-grid has %d quorums, want 7", n)
	}
}

// TestFlatGridQuorums evaluates the flat grid's read-write and T-grid
// (below-line) families on hand-built live sets.
func TestFlatGridQuorums(t *testing.T) {
	h := hgrid.Flat(3, 3)
	rw, tg := hgrid.NewRW(h), NewOriented(h, OrientBelowLine)
	full := bitset.Universe(9)
	if !h.RowCoverGate().Eval(full) || !rw.Available(full) || !tg.Available(full) {
		t.Fatal("full universe should hold every family")
	}
	// One node per row, no full line.
	diag := bitset.FromIndices(9, 0, 4, 8)
	if !h.RowCoverGate().Eval(diag) || h.FullLineGate().Eval(diag) || tg.Available(diag) {
		t.Fatal("diagonal is a row-cover and nothing else")
	}
	// Bottom row only: a full line and a T-grid quorum (no rows below),
	// but no row-cover.
	bottom := bitset.FromIndices(9, 6, 7, 8)
	if h.RowCoverGate().Eval(bottom) || !h.FullLineGate().Eval(bottom) || !tg.Available(bottom) {
		t.Fatal("bottom row is a full line and a T-grid quorum, not a row-cover")
	}
	// Middle row full but bottom row dead: not a T-grid quorum.
	if tg.Available(bitset.FromIndices(9, 3, 4, 5)) {
		t.Fatal("middle row without bottom coverage is not a T-grid quorum")
	}
	// Middle row full plus one below: T-grid quorum.
	if !tg.Available(bitset.FromIndices(9, 3, 4, 5, 7)) {
		t.Fatal("middle row + below element is a T-grid quorum")
	}
}

// TestFlatSystemsIntersectionAndConsistency: the flat grid's read-write
// system and both T-grid orientations are coteries whose Available
// agrees with their enumerated quorums.
func TestFlatSystemsIntersectionAndConsistency(t *testing.T) {
	for _, sys := range []interface {
		quorum.Enumerator
		quorum.System
	}{
		hgrid.NewRW(hgrid.Flat(2, 3)), hgrid.NewRW(hgrid.Flat(3, 3)),
		NewOriented(hgrid.Flat(2, 3), OrientBelowLine), NewOriented(hgrid.Flat(4, 2), OrientBelowLine),
		NewOriented(hgrid.Flat(3, 3), OrientAboveLine),
	} {
		if err := quorum.CheckPairwiseIntersection(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
		if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

// TestPickedQuorumIsRealQuorum verifies that picked sets intersect every
// enumerated quorum, over random live patterns.
func TestPickedQuorumIsRealQuorum(t *testing.T) {
	sys := Auto(3, 3)
	all := quorum.AllQuorums(sys)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		live := bitset.New(9)
		for i := 0; i < 9; i++ {
			if rng.Intn(100) < 75 {
				live.Add(i)
			}
		}
		q, err := sys.Pick(rng, live)
		if err != nil {
			continue
		}
		for _, other := range all {
			if !q.Intersects(other) {
				t.Fatalf("picked %v misses quorum %v (live %v)", q, other, live)
			}
		}
	}
}

// TestBoundaryLineQuorum: a single global line at the cover boundary is a
// quorum of minimum size √n — the top line in the paper-exact orientation,
// the bottom line in the prose orientation.
func TestBoundaryLineQuorum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	top := bitset.FromIndices(16, 0, 1, 2, 3)
	bottom := bitset.FromIndices(16, 12, 13, 14, 15)

	paper := Auto(4, 4)
	if !paper.Available(top) {
		t.Fatal("top line should be available in the paper orientation")
	}
	if paper.Available(bottom) {
		t.Fatal("bottom line alone cannot cover the rows above it")
	}
	q, err := paper.Pick(rng, top)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count() != 4 {
		t.Fatalf("top-line quorum has %d elements, want 4", q.Count())
	}

	prose := NewOriented(hgrid.Auto(4, 4), OrientBelowLine)
	if !prose.Available(bottom) {
		t.Fatal("bottom line should be available in the prose orientation")
	}
	if prose.Available(top) {
		t.Fatal("top line alone cannot cover the rows below it")
	}
	q, err = prose.Pick(rng, bottom)
	if err != nil {
		t.Fatal(err)
	}
	if q.Count() != 4 {
		t.Fatalf("bottom-line quorum has %d elements, want 4", q.Count())
	}
}

// TestOrientationsAgreeOnSymmetricGrids: on vertically symmetric
// hierarchies the two orientations have identical failure probabilities.
func TestOrientationsAgreeOnSymmetricGrids(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {2, 3}, {4, 2}} {
		h := hgrid.Auto(dims[0], dims[1])
		a := analysis.TransversalCounts(NewOriented(h, OrientAboveLine))
		b := analysis.TransversalCounts(NewOriented(h, OrientBelowLine))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%dx%d: transversal counts differ at size %d: %d vs %d", dims[0], dims[1], i, a[i], b[i])
			}
		}
	}
}

// TestProseOrientationIsCoterie: the prose orientation is also a valid
// quorum system.
func TestProseOrientationIsCoterie(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 4}} {
		sys := NewOriented(hgrid.Auto(dims[0], dims[1]), OrientBelowLine)
		if err := quorum.CheckPairwiseIntersection(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
		if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

// TestHTGridQuorumIntersectsRowCovers verifies §4.2's remark that h-T-grid
// quorums still intersect every full row-cover (so reads can keep using
// h-grid read quorums).
func TestHTGridQuorumIntersectsRowCovers(t *testing.T) {
	checkQuorumsMeetRowCovers(t, Auto(3, 3))
}

// TestFlatTGridQuorumsMeetRowCovers: the same remark for the flat T-grid,
// whose quorums meet every row-cover of the flat grid.
func TestFlatTGridQuorumsMeetRowCovers(t *testing.T) {
	checkQuorumsMeetRowCovers(t, NewOriented(hgrid.Flat(3, 3), OrientBelowLine))
}

func checkQuorumsMeetRowCovers(t *testing.T, sys *System) {
	t.Helper()
	covers := sys.Hierarchy().RowCovers()
	sys.EnumerateQuorums(func(q bitset.Set) bool {
		for _, rc := range covers {
			if !q.Intersects(rc) {
				t.Fatalf("%s quorum %v misses row-cover %v", sys.Name(), q, rc)
				return false
			}
		}
		return true
	})
}

// TestSection43RectangularClaims verifies the paper's prose observations
// about rectangular grids (§4.3):
//
//  1. on the 6-line × 4-column grid the h-T-grid's failure probability is
//     "less than 1/3 of the corresponding h-grid system";
//  2. it is "even better than the failure probability of the square grid
//     with 25 nodes (without incurring in bigger quorum sizes)";
//  3. "organizing the elements in a 3×8 grid leads to a worse failure
//     probability than using the 4×6 grid";
//  4. the improvement over the h-grid is bigger when lines outnumber
//     columns (6×4) than in the transposed 4-line × 6-column layout.
func TestSection43RectangularClaims(t *testing.T) {
	const p = 0.1
	f := func(sys *System) float64 {
		return analysis.FailureAt(sys, []float64{p})[0]
	}
	fGrid := func(rows, cols int) float64 {
		return 1 - hgrid.Auto(rows, cols).Dist(1-p).Both
	}

	f64 := f(Auto(6, 4)) // 6 lines × 4 columns
	if g := fGrid(6, 4); f64 >= g/3 {
		t.Errorf("claim 1: h-T-grid 6x4 F=%.6f not below a third of h-grid %.6f", f64, g)
	}
	f55 := f(Auto(5, 5))
	if f64 >= f55 {
		t.Errorf("claim 2: h-T-grid 6x4 F=%.6f not better than square 5x5 %.6f", f64, f55)
	}
	if q64, q55 := Auto(6, 4).MaxQuorumSize(), Auto(5, 5).MaxQuorumSize(); q64 > q55 {
		t.Errorf("claim 2: 6x4 max quorum %d exceeds 5x5's %d", q64, q55)
	}
	f83 := f(Auto(8, 3)) // 8 lines × 3 columns ("3×8" in the paper's cols×lines wording)
	if f83 <= f64 {
		t.Errorf("claim 3: 8x3 F=%.6f not worse than 6x4 %.6f", f83, f64)
	}
	// Claim 4: improvement ratio F_hT/F_h smaller when lines > columns.
	tall := f64 / fGrid(6, 4)
	wide := f(Auto(4, 6)) / fGrid(4, 6)
	if tall >= wide {
		t.Errorf("claim 4: improvement ratio tall %.3f not better than wide %.3f", tall, wide)
	}
}

// TestGatePricesExactly cross-checks the line-plus-cover gate, in both
// orientations, against brute force over the enumerated quorums: the
// cover sharing processes with the line must never be paid for twice, on
// square, asymmetric and three-level hierarchies alike.
func TestGatePricesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][2]int{{3, 3}, {4, 4}, {5, 3}, {3, 5}, {6, 4}} {
		for _, o := range []Orientation{OrientAboveLine, OrientBelowLine} {
			sys := NewOriented(hgrid.Auto(dims[0], dims[1]), o)
			if err := quorum.CheckCheapest(sys.Gate(), quorum.AllQuorums(sys), sys.Universe(), rng, 300); err != nil {
				t.Errorf("%dx%d orientation %d: %v", dims[0], dims[1], o, err)
			}
		}
	}
}
