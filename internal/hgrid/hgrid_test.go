package hgrid

import (
	"math"
	"math/rand"
	"testing"

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

func TestPredicatesSmall(t *testing.T) {
	h := Uniform(2, 2, 2) // Figure 1's 16-process hierarchy
	// A hierarchical row-cover: in each top band pick one cell, one element
	// per row of it. Top band: cell (0,0) → rows 0,1 with ids 0 and 4;
	// bottom band: cell (1,1) → ids 10 and 14.
	rc := bitset.FromIndices(16, 0, 4, 10, 14)
	if !h.HasRowCover(rc) {
		t.Fatal("expected row-cover")
	}
	if h.HasFullLine(rc) {
		t.Fatal("row-cover should not contain a full-line")
	}
	// A hierarchical full-line: top band, both cells pick a line each; cell
	// (0,0) picks its row 1 (ids 4,5), cell (0,1) picks its row 0 (ids 2,3).
	fl := bitset.FromIndices(16, 4, 5, 2, 3)
	if !h.HasFullLine(fl) {
		t.Fatal("expected full-line")
	}
	if h.HasRowCover(fl) {
		t.Fatal("full-line should not be a row-cover")
	}
	if got := h.MinTopRow(fl); got != 0 {
		t.Fatalf("MinTopRow = %d, want 0", got)
	}
	if got := h.BestFullLineTop(fl); got != 0 {
		t.Fatalf("BestFullLineTop = %d, want 0", got)
	}
	// Full bottom row: ids 12..15, a full-line with topmost row 3.
	bottom := bitset.FromIndices(16, 12, 13, 14, 15)
	if !h.HasFullLine(bottom) {
		t.Fatal("bottom row should be a full-line")
	}
	if got := h.BestFullLineTop(bottom); got != 3 {
		t.Fatalf("BestFullLineTop(bottom) = %d, want 3", got)
	}
	// Partial row-cover keeping rows >= 3 only needs a live choice in row 3.
	if !h.HasPartialRowCoverBelow(bottom, 3) {
		t.Fatal("bottom row should contain a partial row-cover wrt row 3")
	}
	if h.HasPartialRowCoverBelow(bottom, 2) {
		t.Fatal("bottom row lacks row-2 coverage wrt minRow 2")
	}
	// In the Definition 4.2 orientation, a cover keeping rows <= 3 needs
	// every row, which the bottom row alone cannot provide.
	if h.HasPartialRowCoverAbove(bottom, 3) {
		t.Fatal("bottom row cannot cover rows 0..3")
	}
	if !h.HasPartialRowCoverAbove(bottom, -1) {
		t.Fatal("empty cover (threshold above grid) should be feasible")
	}
	if got := h.BestFullLineBottom(bottom); got != 3 {
		t.Fatalf("BestFullLineBottom(bottom) = %d, want 3", got)
	}
	if got := h.MaxBottomRow(bottom); got != 3 {
		t.Fatalf("MaxBottomRow = %d, want 3", got)
	}
}

func TestRowCoverIntersectsFullLine(t *testing.T) {
	// The intersection theorem of [9], exhaustively on two structures.
	for _, h := range []*Hierarchy{Auto(3, 3), Uniform(2, 2, 2)} {
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
	if err := quorum.CheckAvailabilityConsistency(sys); err != nil {
		t.Fatal(err)
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
	// BestFullLineTop never decreases when processes are added.
	h := Auto(4, 4)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		live := bitset.New(16)
		for i := 0; i < 16; i++ {
			if rng.Intn(2) == 0 {
				live.Add(i)
			}
		}
		before := h.BestFullLineTop(live)
		grown := live.Clone()
		grown.Add(rng.Intn(16))
		after := h.BestFullLineTop(grown)
		if after < before {
			t.Fatalf("adding a process decreased BestFullLineTop: %d -> %d (live %v)", before, after, live)
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
