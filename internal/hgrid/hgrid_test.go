package hgrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

func TestGeometry(t *testing.T) {
	h := Auto(3, 3)
	if h.N() != 9 || h.Rows() != 3 || h.Cols() != 3 {
		t.Fatalf("Auto(3,3): n=%d rows=%d cols=%d", h.N(), h.Rows(), h.Cols())
	}
	if h.Levels() != 2 {
		t.Fatalf("Auto(3,3) levels = %d, want 2", h.Levels())
	}
	for id := 0; id < 9; id++ {
		if h.RowOf(id) != id/3 || h.ColOf(id) != id%3 {
			t.Fatalf("id %d mapped to (%d,%d)", id, h.RowOf(id), h.ColOf(id))
		}
	}
	u := Uniform(2, 2, 2)
	if u.N() != 16 || u.Levels() != 2 {
		t.Fatalf("Uniform(2,2,2): n=%d levels=%d", u.N(), u.Levels())
	}
	f := Flat(4, 6)
	if f.N() != 24 || f.Levels() != 1 {
		t.Fatalf("Flat(4,6): n=%d levels=%d", f.N(), f.Levels())
	}
}

func TestAutoEqualsUniformFor16(t *testing.T) {
	// Auto(4,4) and Uniform(2,2,2) must be the same 3-level structure.
	a, u := Auto(4, 4), Uniform(2, 2, 2)
	for _, p := range []float64{0.1, 0.3} {
		da, du := a.Dist(1-p), u.Dist(1-p)
		if math.Abs(da.Both-du.Both) > 1e-15 {
			t.Fatalf("p=%v: Auto %v vs Uniform %v", p, da, du)
		}
	}
}

// TestPaperTable1HGrid reproduces the h-grid column of Table 1.
func TestPaperTable1HGrid(t *testing.T) {
	configs := []struct {
		name string
		h    *Hierarchy
		want map[float64]float64
	}{
		{"3x3", Auto(3, 3), map[float64]float64{
			0.1: 0.016893, 0.2: 0.109235, 0.3: 0.286224, 0.5: 0.716797}},
		{"4x4", Auto(4, 4), map[float64]float64{
			0.1: 0.005799, 0.2: 0.069318, 0.3: 0.243795, 0.5: 0.746628}},
		{"5x5", Auto(5, 5), map[float64]float64{
			0.1: 0.001753, 0.2: 0.039439, 0.3: 0.191581, 0.5: 0.751019}},
		{"4x6", Auto(6, 4), map[float64]float64{
			0.1: 0.001949, 0.2: 0.034161, 0.3: 0.167172, 0.5: 0.725377}},
	}
	for _, cfg := range configs {
		for p, want := range cfg.want {
			got := 1 - cfg.h.Dist(1-p).Both
			if math.Abs(got-want) > 5e-7 {
				t.Errorf("%s p=%.1f: F = %.6f, paper %.6f", cfg.name, p, got, want)
			}
		}
	}
}

// TestDistMatchesEnumeration cross-checks the structural DP against exact
// subset enumeration of the availability predicate.
func TestDistMatchesEnumeration(t *testing.T) {
	for _, h := range []*Hierarchy{Auto(3, 3), Auto(4, 4), Flat(3, 3), Uniform(2, 2, 2), Auto(3, 4)} {
		sys := NewRW(h)
		counts := analysis.TransversalCounts(sys)
		for _, p := range []float64{0.1, 0.3, 0.5} {
			want := analysis.Failure(counts, p)
			got := 1 - h.Dist(1-p).Both
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%s p=%.1f: DP %.12f, enumeration %.12f", sys.Name(), p, got, want)
			}
		}
	}
}

// bestTop is the largest boundary row r for which live holds a full-line
// within rows r..bottom (the line a below-cover may start at), or -1.
func bestTop(h *Hierarchy, live bitset.Set) int {
	for r := h.Rows() - 1; r >= 0; r-- {
		if h.LineGate(r, false).Eval(live) {
			return r
		}
	}
	return -1
}

// bestBottom is the smallest boundary row r for which live holds a
// full-line within rows 0..r (the line an above-cover may end at), or -1.
func bestBottom(h *Hierarchy, live bitset.Set) int {
	for r := 0; r < h.Rows(); r++ {
		if h.LineGate(r, true).Eval(live) {
			return r
		}
	}
	return -1
}

// TestPredicatesSmall evaluates the gates on hand-built live sets of
// Figure 1's hierarchy.
func TestPredicatesSmall(t *testing.T) {
	h := Uniform(2, 2, 2) // Figure 1's 16-process hierarchy
	rowCover, fullLine := h.RowCoverGate(), h.FullLineGate()
	// A hierarchical row-cover: in each top band pick one cell, one element
	// per row of it. Top band: cell (0,0) → rows 0,1 with ids 0 and 4;
	// bottom band: cell (1,1) → ids 10 and 14.
	rc := bitset.FromIndices(16, 0, 4, 10, 14)
	if !rowCover.Eval(rc) {
		t.Fatal("expected row-cover")
	}
	if fullLine.Eval(rc) {
		t.Fatal("row-cover should not contain a full-line")
	}
	// A hierarchical full-line: top band, both cells pick a line each; cell
	// (0,0) picks its row 1 (ids 4,5), cell (0,1) picks its row 0 (ids 2,3).
	fl := bitset.FromIndices(16, 4, 5, 2, 3)
	if !fullLine.Eval(fl) {
		t.Fatal("expected full-line")
	}
	if rowCover.Eval(fl) {
		t.Fatal("full-line should not be a row-cover")
	}
	if got := h.MinTopRow(fl); got != 0 {
		t.Fatalf("MinTopRow = %d, want 0", got)
	}
	if got := bestTop(h, fl); got != 0 {
		t.Fatalf("best line top = %d, want 0", got)
	}
	// Full bottom row: ids 12..15, a full-line with topmost row 3.
	bottom := bitset.FromIndices(16, 12, 13, 14, 15)
	if !fullLine.Eval(bottom) {
		t.Fatal("bottom row should be a full-line")
	}
	if got := bestTop(h, bottom); got != 3 {
		t.Fatalf("best line top (bottom) = %d, want 3", got)
	}
	// Partial row-cover keeping rows >= 3 only needs a live choice in row 3.
	if !h.CoverGate(3, false).Eval(bottom) {
		t.Fatal("bottom row should contain a partial row-cover wrt row 3")
	}
	if h.CoverGate(2, false).Eval(bottom) {
		t.Fatal("bottom row lacks row-2 coverage wrt minRow 2")
	}
	// In the Definition 4.2 orientation, a cover keeping rows <= 3 needs
	// every row, which the bottom row alone cannot provide.
	if h.CoverGate(3, true).Eval(bottom) {
		t.Fatal("bottom row cannot cover rows 0..3")
	}
	if !h.CoverGate(-1, true).Eval(bottom) {
		t.Fatal("empty cover (threshold above grid) should be feasible")
	}
	if got := bestBottom(h, bottom); got != 3 {
		t.Fatalf("best line bottom (bottom) = %d, want 3", got)
	}
	if got := h.MaxBottomRow(bottom); got != 3 {
		t.Fatalf("MaxBottomRow = %d, want 3", got)
	}
}

// TestBoundaryGatesMatchEnumeration checks every boundary gate against
// the hand-written enumerations on every live set: CoverGate(r, above)
// holds exactly when some row-cover's part on the kept side of r is live,
// LineGate(r, above) exactly when some full-line lying on that side is.
func TestBoundaryGatesMatchEnumeration(t *testing.T) {
	for _, h := range []*Hierarchy{Auto(3, 3), Auto(2, 4), Auto(4, 2), Auto(4, 3), Auto(5, 2), Flat(3, 3)} {
		n := h.N()
		covers, lines := h.RowCovers(), h.FullLines()
		for r := -1; r <= h.Rows(); r++ {
			for _, above := range []bool{true, false} {
				kept := func(id int) bool {
					if above {
						return h.RowOf(id) <= r
					}
					return h.RowOf(id) >= r
				}
				var parts, within []bitset.Set
				for _, rc := range covers {
					part := bitset.New(n)
					rc.ForEach(func(id int) {
						if kept(id) {
							part.Add(id)
						}
					})
					parts = append(parts, part)
				}
				for _, fl := range lines {
					ok := true
					fl.ForEach(func(id int) { ok = ok && kept(id) })
					if ok {
						within = append(within, fl)
					}
				}
				cover, line := h.CoverGate(r, above), h.LineGate(r, above)
				for mask := uint64(0); mask < 1<<uint(n); mask++ {
					live := bitset.FromWord(n, mask)
					if got, want := cover.Eval(live), anySubset(parts, live); got != want {
						t.Fatalf("%dx%d CoverGate(%d, %t) on %v = %t, enumeration says %t", h.Rows(), h.Cols(), r, above, live, got, want)
					}
					if got, want := line.Eval(live), anySubset(within, live); got != want {
						t.Fatalf("%dx%d LineGate(%d, %t) on %v = %t, enumeration says %t", h.Rows(), h.Cols(), r, above, live, got, want)
					}
				}
			}
		}
	}
}

func anySubset(sets []bitset.Set, live bitset.Set) bool {
	for _, s := range sets {
		if s.SubsetOf(live) {
			return true
		}
	}
	return false
}

func TestRowCoverIntersectsFullLine(t *testing.T) {
	// The intersection theorem of [9], exhaustively on two structures.
	checkRowCoversMeetFullLines(t, Auto(3, 3), Uniform(2, 2, 2))
}

// TestFlatRowCoverIntersectsFullLine: the same theorem on the flat grid,
// a one-level hierarchy.
func TestFlatRowCoverIntersectsFullLine(t *testing.T) {
	checkRowCoversMeetFullLines(t, Flat(3, 4))
}

func checkRowCoversMeetFullLines(t *testing.T, hs ...*Hierarchy) {
	t.Helper()
	for _, h := range hs {
		fls := h.FullLines()
		rcs := h.RowCovers()
		for _, fl := range fls {
			for _, rc := range rcs {
				inter := fl.Intersect(rc)
				if inter.Empty() {
					t.Fatalf("%dx%d: full-line %v misses row-cover %v", h.Rows(), h.Cols(), fl, rc)
				}
				if inter.Count() != 1 {
					t.Fatalf("%dx%d: overlap %v not a single process", h.Rows(), h.Cols(), inter)
				}
			}
		}
	}
}

func TestStructuralSizes(t *testing.T) {
	for _, h := range []*Hierarchy{Auto(3, 3), Auto(4, 4), Auto(5, 5), Auto(6, 4)} {
		for _, fl := range h.FullLines() {
			if fl.Count() != h.Cols() {
				t.Fatalf("full-line size %d, want %d", fl.Count(), h.Cols())
			}
		}
		for _, rc := range h.RowCovers() {
			if rc.Count() != h.Rows() {
				t.Fatalf("row-cover size %d, want %d", rc.Count(), h.Rows())
			}
		}
	}
}

func TestRWSystem(t *testing.T) {
	sys := NewRW(Auto(3, 3))
	if err := quorum.CheckPairwiseIntersection(sys); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Hierarchy{Auto(3, 3), Auto(4, 4), Auto(5, 4), Auto(2, 6), Flat(3, 4), Flat(4, 5)} {
		if err := quorum.CheckAvailabilityConsistency(NewRW(h)); err != nil {
			t.Fatalf("%dx%d l=%d: %v", h.Rows(), h.Cols(), h.Levels(), err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	if err := quorum.CheckPickConsistency(sys, rng, 400); err != nil {
		t.Fatal(err)
	}
	if sys.MinQuorumSize() != 5 || sys.MaxQuorumSize() != 5 {
		t.Fatalf("sizes (%d,%d), want (5,5)", sys.MinQuorumSize(), sys.MaxQuorumSize())
	}
	// All picked quorums on the full universe have exactly cols+rows-1
	// elements.
	live := bitset.Universe(9)
	for i := 0; i < 100; i++ {
		q, err := sys.Pick(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		if q.Count() != 5 {
			t.Fatalf("picked quorum %v has %d elements, want 5", q, q.Count())
		}
	}
}

func TestBestFullLineTopMonotone(t *testing.T) {
	// The best line's top row never decreases when processes are added.
	h := Auto(4, 4)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		live := bitset.New(16)
		for i := 0; i < 16; i++ {
			if rng.Intn(2) == 0 {
				live.Add(i)
			}
		}
		before := bestTop(h, live)
		grown := live.Clone()
		grown.Add(rng.Intn(16))
		after := bestTop(h, grown)
		if after < before {
			t.Fatalf("adding a process decreased the best line's top: %d -> %d (live %v)", before, after, live)
		}
	}
}

func TestRenderFigure1(t *testing.T) {
	h := Uniform(2, 2, 2)
	fl := bitset.FromIndices(16, 12, 13, 14, 15)
	out := h.Render(fl)
	if len(out) == 0 {
		t.Fatal("empty rendering")
	}
	// The bottom row should be all '#'.
	lines := []byte(out)
	_ = lines
	want := ". .  . .\n. .  . .\n\n. .  . .\n# #  # #\n"
	if out != want {
		t.Fatalf("Render:\n%s\nwant:\n%s", out, want)
	}
}

// TestBandsAreOrderedRowRanges locks the geometric invariant behind the
// Definition 4.2 implementation: in every hierarchy, the child row bands
// of every internal object occupy disjoint, consecutively ordered global
// row ranges, and all cells of a band span exactly the band's rows. Row
// paths of leaves in different cells are therefore only comparable down to
// the level where their bands diverge — which is why the implementation
// orders processes by global row, the refinement of the paper's "global
// positions reflect the relative positions of all parent logical objects"
// that reproduces Table 1 exactly.
func TestBandsAreOrderedRowRanges(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 4}, {5, 5}, {6, 4}, {7, 3}, {2, 5}} {
		h := Auto(dims[0], dims[1])
		var walk func(o *Object)
		walk = func(o *Object) {
			if o.IsLeaf() {
				return
			}
			oTop, _, oHeight, _ := o.Span()
			expectTop := oTop
			for r := 0; r < o.ChildRows(); r++ {
				bandTop, _, bandHeight, _ := o.Child(r, 0).Span()
				if bandTop != expectTop {
					t.Fatalf("%dx%d: band %d starts at row %d, want %d", dims[0], dims[1], r, bandTop, expectTop)
				}
				for c := 0; c < o.ChildCols(r); c++ {
					top, _, height, _ := o.Child(r, c).Span()
					if top != bandTop || height != bandHeight {
						t.Fatalf("%dx%d: cell (%d,%d) spans rows [%d,%d), band spans [%d,%d)",
							dims[0], dims[1], r, c, top, top+height, bandTop, bandTop+bandHeight)
					}
					walk(o.Child(r, c))
				}
				expectTop += bandHeight
			}
			if expectTop != oTop+oHeight {
				t.Fatalf("%dx%d: bands cover rows up to %d, object ends at %d", dims[0], dims[1], expectTop, oTop+oHeight)
			}
		}
		walk(h.Root())
	}
}

// TestGatesPriceExactly cross-checks the row-cover and full-line gates
// against brute force over the enumerated families, on square, asymmetric
// and three-level hierarchies.
func TestGatesPriceExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, h := range []*Hierarchy{Auto(3, 3), Auto(4, 4), Auto(5, 3), Auto(6, 4), Flat(3, 4)} {
		if err := quorum.CheckCheapest(h.RowCoverGate(), h.RowCovers(), h.N(), rng, 300); err != nil {
			t.Errorf("%dx%d row-cover: %v", h.Rows(), h.Cols(), err)
		}
		if err := quorum.CheckCheapest(h.FullLineGate(), h.FullLines(), h.N(), rng, 300); err != nil {
			t.Errorf("%dx%d full-line: %v", h.Rows(), h.Cols(), err)
		}
	}
}

// TestGatesPick runs quorum.CheckPick on the row-cover, full-line and
// every partial row-cover gate: the random picks draw exactly the
// enumerated quorums, and all of them.
func TestGatesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, h := range []*Hierarchy{Auto(3, 3), Auto(4, 4), Auto(5, 3), Flat(3, 4)} {
		gates := map[string]*quorum.Gate{"row-cover": h.RowCoverGate(), "full-line": h.FullLineGate()}
		for r := 0; r < h.Rows(); r++ {
			gates[fmt.Sprintf("cover above %d", r)] = h.CoverGate(r, true)
			gates[fmt.Sprintf("cover below %d", r)] = h.CoverGate(r, false)
		}
		for name, g := range gates {
			if err := quorum.CheckPick(g, h.N(), rng, 200); err != nil {
				t.Errorf("%dx%d %s: %v", h.Rows(), h.Cols(), name, err)
			}
		}
	}
}

func TestIDLayout(t *testing.T) {
	f := Flat(3, 4)
	if got := f.IDAt(0, 0); got != 0 {
		t.Fatalf("IDAt(0,0) = %d", got)
	}
	if got := f.IDAt(2, 3); got != 11 {
		t.Fatalf("IDAt(2,3) = %d", got)
	}
	// A 2x2 region of a 10-process universe, raster from ID 5.
	e := AutoRegion([][]int{{5, 6}, {7, 8}}, 10)
	if got := e.IDAt(1, 1); got != 8 {
		t.Fatalf("region IDAt(1,1) = %d", got)
	}
	if e.RowOf(8) != 1 || e.ColOf(8) != 1 || e.RowOf(4) != -1 {
		t.Fatalf("region maps 8 to (%d,%d) and 4 to row %d", e.RowOf(8), e.ColOf(8), e.RowOf(4))
	}
}

// TestRenderFlat: on a flat grid every process is a level-1 object, so
// every row and column is a block boundary.
func TestRenderFlat(t *testing.T) {
	q := bitset.FromIndices(4, 0, 3)
	want := "#  .\n\n.  #\n"
	if got := Flat(2, 2).Render(q); got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
}

// TestInvalidDimensions: every constructor rejects a grid without
// processes when it is built, not later inside an analysis.
func TestInvalidDimensions(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Hierarchy
		want  string
	}{
		{"Flat(0,4)", func() *Hierarchy { return Flat(0, 4) }, "hgrid: invalid dimensions 0x4"},
		{"Flat(3,-1)", func() *Hierarchy { return Flat(3, -1) }, "hgrid: invalid dimensions 3x-1"},
		{"Auto(0,4)", func() *Hierarchy { return Auto(0, 4) }, "hgrid: invalid dimensions 0x4"},
		{"Auto(2,0)", func() *Hierarchy { return Auto(2, 0) }, "hgrid: invalid dimensions 2x0"},
		{"Auto(-2,3)", func() *Hierarchy { return Auto(-2, 3) }, "hgrid: invalid dimensions -2x3"},
		{"Uniform(2,0,2)", func() *Hierarchy { return Uniform(2, 0, 2) }, "hgrid: invalid dimensions 0x2"},
		{"Uniform(2,2,-3)", func() *Hierarchy { return Uniform(2, 2, -3) }, "hgrid: invalid dimensions 2x-3"},
		{"Uniform(0,2,2)", func() *Hierarchy { return Uniform(0, 2, 2) }, "hgrid: levels 0 < 1"},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s panics with %v, want %q", c.name, got, c.want)
				}
			}()
			c.build()
		}()
	}
}

// TestJointMatchesEnumeration verifies the closed-form joint (RC, FL)
// distribution of flat grids against exact subset enumeration.
func TestJointMatchesEnumeration(t *testing.T) {
	for _, sh := range []struct{ r, c int }{{2, 2}, {3, 3}, {2, 4}, {4, 2}, {3, 4}} {
		h := Flat(sh.r, sh.c)
		counts := analysis.TransversalCounts(NewRW(h))
		for _, p := range []float64{0.1, 0.25, 0.5} {
			want := analysis.Failure(counts, p)
			got := 1 - h.Dist(1-p).Both
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%dx%d p=%.2f: DP %.12f, enumeration %.12f", sh.r, sh.c, p, got, want)
			}
		}
	}
}

// TestJointMarginals verifies the RC and FL marginals of the flat grid's
// joint distribution against direct formulas for i.i.d. leaves.
func TestJointMarginals(t *testing.T) {
	p := 0.2
	q := 1 - p
	d := Flat(3, 4).Dist(q)
	wantRC := math.Pow(1-math.Pow(p, 4), 3)
	wantFL := 1 - math.Pow(1-math.Pow(q, 4), 3)
	if math.Abs(d.RC()-wantRC) > 1e-12 {
		t.Errorf("RC marginal %.12f, want %.12f", d.RC(), wantRC)
	}
	if math.Abs(d.FL()-wantFL) > 1e-12 {
		t.Errorf("FL marginal %.12f, want %.12f", d.FL(), wantFL)
	}
	if d.None() < 0 || d.None() > 1 {
		t.Errorf("None() = %v outside [0,1]", d.None())
	}
}

// TestJointProbabilityLaws property-tests that joint always returns a valid
// distribution dominated by its marginals.
func TestJointProbabilityLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(3)
		cols := 1 + rng.Intn(3)
		cells := make([][]Dist, rows)
		for r := range cells {
			cells[r] = make([]Dist, cols)
			for c := range cells[r] {
				// Random sub-distribution.
				a, b, g := rng.Float64(), rng.Float64(), rng.Float64()
				total := a + b + g + rng.Float64()
				cells[r][c] = Dist{Both: a / total, RCOnly: b / total, FLOnly: g / total}
			}
		}
		d := joint(cells)
		eps := 1e-9
		return d.Both >= -eps && d.RCOnly >= -eps && d.FLOnly >= -eps &&
			d.None() >= -eps && d.RC() <= 1+eps && d.FL() <= 1+eps &&
			d.Both <= d.RC()+eps && d.Both <= d.FL()+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
