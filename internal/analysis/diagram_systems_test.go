package analysis_test

// Cross-checks of the decision diagrams: on the gated constructions (the
// h-grid family and the baselines: majority, HQS, CWlog, the k-majority)
// and on the graph systems (Paths and Y), the diagram's transversal
// counts must equal the enumerator's wherever 2ⁿ failed sets can be
// walked, and the closed forms or pinned vectors beyond that. These tests
// live in an external test package so they can import the construction
// packages.

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"hquorum/internal/analysis"
	"hquorum/internal/hgrid"
	"hquorum/internal/hqs"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/majority"
	"hquorum/internal/paths"
	"hquorum/internal/quorum"
	"hquorum/internal/ysys"
)

type namedSystem interface {
	analysis.Availability
	Name() string
}

type gatedSystem interface {
	namedSystem
	Gate() *quorum.Gate
}

type graphSystem interface {
	namedSystem
	analysis.Compiled
}

// TestEnumeratorWorkerInvariance asserts the work-stealing enumerator
// returns identical counts for 1, 3 and GOMAXPROCS workers on a system
// large enough to span multiple work blocks.
func TestEnumeratorWorkerInvariance(t *testing.T) {
	sys := mustLog(18) // 2¹⁸ subsets: 4 work blocks
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	want := analysis.TransversalCountsParallel(sys, workerCounts[0])
	for _, w := range workerCounts[1:] {
		if got := analysis.TransversalCountsParallel(sys, w); !slices.Equal(got, want) {
			t.Fatalf("%s: workers=%d counts %v, want %v", sys.Name(), w, got, want)
		}
	}
}

// TestGraphDiagramEnumeratorAgrees compares Paths' and Y's compiled counts
// with the enumerator's, which runs their breadth-first Available on every
// failed set.
func TestGraphDiagramEnumeratorAgrees(t *testing.T) {
	systems := []graphSystem{paths.New(1), paths.New(2)}
	for k := 1; k <= 6; k++ {
		systems = append(systems, ysys.New(k))
	}
	for _, sys := range systems {
		got, err := analysis.Counts(sys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if want := analysis.TransversalCountsParallel(sys, runtime.GOMAXPROCS(0)); !slices.Equal(got, want) {
			t.Fatalf("%s: diagram counts %v, enumeration %v", sys.Name(), got, want)
		}
	}
}

// TestGraphCountsPinned pins the counts of Table 3's Paths(25) and Y(28),
// recorded from a full 2ⁿ enumeration of their Available.
func TestGraphCountsPinned(t *testing.T) {
	for _, c := range []struct {
		sys  graphSystem
		want []uint64
	}{
		{paths.New(3), []uint64{0, 0, 0, 0, 8, 228, 2928, 22344, 113578, 409250, 1086228, 2179688, 3372810,
			4094338, 3964544, 3112412, 2009569, 1077257, 480444, 177100, 53130, 12650, 2300, 300, 25, 1}},
		{ysys.New(7), []uint64{0, 0, 0, 0, 0, 0, 0, 736, 13884, 121392, 651433, 2396757, 6408038, 12903083,
			20058300, 24539077, 24013717, 19077423, 12471677, 6785508, 3094221, 1183304, 376740, 98280,
			20475, 3276, 378, 28, 1}},
	} {
		got, err := analysis.Counts(c.sys)
		if err != nil {
			t.Fatalf("%s: %v", c.sys.Name(), err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: counts %v, want %v", c.sys.Name(), got, c.want)
		}
	}
}

// TestGraphDiagramOutOfReach: Paths(41) and Y(36) outgrow the diagram's
// node cap, and Counts, with no enumeration past 30 processes, says so.
func TestGraphDiagramOutOfReach(t *testing.T) {
	for _, sys := range []graphSystem{paths.New(4), ysys.New(8)} {
		_, err := analysis.Counts(sys)
		if !errors.Is(err, quorum.ErrTooLarge) || !errors.Is(err, analysis.ErrTooLarge) {
			t.Errorf("%s: err %v, want quorum.ErrTooLarge and analysis.ErrTooLarge", sys.Name(), err)
		}
	}
}

// TestDiagramEnumeratorAgrees compares the diagram's transversal counts
// with the enumerator's, which evaluates Available on every failed set, on
// systems small enough to enumerate.
func TestDiagramEnumeratorAgrees(t *testing.T) {
	systems := []gatedSystem{
		hgrid.NewRW(hgrid.Uniform(2, 2, 2)), // n = 16
		htgrid.Auto(4, 4),                   // n = 16
		htriang.New(5),                      // n = 15
		htriang.New(6),                      // n = 21
		majority.NewTieBreak(12),
		mustKMajority(15, 2),
		mustLog(14),
		hqs.Grouped(5, 3),
	}
	for _, sys := range systems {
		got, err := analysis.Counts(sys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if want := analysis.TransversalCountsParallel(sys, runtime.GOMAXPROCS(0)); !slices.Equal(got, want) {
			t.Fatalf("%s: diagram counts %v, enumeration %v", sys.Name(), got, want)
		}
	}
}

// TestDiagramMatchesClosedForms checks the diagram's failure probability
// against each construction's closed form to 1e-12, up to 64 processes:
// the h-grid against Hierarchy.Dist, the h-triang against its
// decomposition, majority, HQS, CWlog and the k-majority against theirs.
func TestDiagramMatchesClosedForms(t *testing.T) {
	hgridFail := func(h *hgrid.Hierarchy) func(float64) float64 {
		return func(p float64) float64 { return 1 - h.Dist(1-p).Both }
	}
	grown, err := htriang.FromSpec(htriang.Canonical(6).GrowT2())
	if err != nil {
		t.Fatal(err)
	}
	kmaj := func(n, k int) (gatedSystem, func(float64) float64) {
		s := mustKMajority(n, k)
		return s, func(p float64) float64 { return analysis.MajorityFailure(n, s.MinQuorumSize(), p) }
	}
	type closed struct {
		sys  gatedSystem
		fail func(float64) float64
	}
	var cases []closed
	for _, h := range []*hgrid.Hierarchy{
		hgrid.Flat(3, 4), hgrid.Uniform(2, 2, 2), hgrid.Auto(5, 5), hgrid.Auto(6, 4),
		hgrid.Auto(6, 6), hgrid.Auto(7, 7), hgrid.Auto(8, 8),
	} {
		cases = append(cases, closed{hgrid.NewRW(h), hgridFail(h)})
	}
	for _, s := range []*htriang.System{htriang.New(5), htriang.New(8), htriang.New(9), htriang.New(10), grown} {
		cases = append(cases, closed{s, s.FailureProbability})
	}
	for _, s := range []*majority.System{majority.New(21), majority.New(63), majority.NewTieBreak(28), majority.NewTieBreak(64)} {
		cases = append(cases, closed{s, s.FailureProbability})
	}
	for _, s := range []*hqs.System{hqs.Grouped(5, 3), hqs.Uniform(3, 3), hqs.Uniform(2, 8), mixedHQS()} {
		cases = append(cases, closed{s, s.FailureProbability})
	}
	for _, s := range []interface {
		gatedSystem
		FailureProbability(float64) float64
	}{mustLog(14), mustLog(29), mustLog(60), mustWall([]int{2, 1, 3, 4, 2})} {
		cases = append(cases, closed{s, s.FailureProbability})
	}
	for _, nk := range [][2]int{{15, 2}, {40, 3}} {
		s, f := kmaj(nk[0], nk[1])
		cases = append(cases, closed{s, f})
	}
	for _, c := range cases {
		counts, err := analysis.Counts(c.sys)
		if err != nil {
			t.Fatalf("%s: %v", c.sys.Name(), err)
		}
		for _, p := range []float64{0.1, 0.3, 0.5} {
			if got, want := analysis.Failure(counts, p), c.fail(p); math.Abs(got-want) > 1e-12 {
				t.Errorf("%s at p=%v: diagram %.15g, closed form %.15g", c.sys.Name(), p, got, want)
			}
		}
	}
}
