package cwlog

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

func TestLogWidths(t *testing.T) {
	s14, err := Log(14)
	if err != nil {
		t.Fatal(err)
	}
	want14 := []int{1, 2, 2, 3, 3, 3}
	if len(s14.widths) != len(want14) {
		t.Fatalf("CWlog(14) widths = %v", s14.widths)
	}
	for i, w := range want14 {
		if s14.widths[i] != w {
			t.Fatalf("CWlog(14) widths = %v, want %v", s14.widths, want14)
		}
	}
	s29, err := Log(29)
	if err != nil {
		t.Fatal(err)
	}
	want29 := []int{1, 2, 2, 3, 3, 3, 3, 4, 4, 4}
	for i, w := range want29 {
		if s29.widths[i] != w {
			t.Fatalf("CWlog(29) widths = %v, want %v", s29.widths, want29)
		}
	}
}

// TestPaperTables23CWlog reproduces the CWlog columns of Tables 2 and 3.
func TestPaperTables23CWlog(t *testing.T) {
	tests := []struct {
		n    int
		p    float64
		want float64
	}{
		{14, 0.1, 0.001639},
		{14, 0.2, 0.021787},
		{14, 0.3, 0.099915},
		{14, 0.5, 0.500000},
		{29, 0.1, 0.000205},
		{29, 0.2, 0.006865},
		{29, 0.3, 0.056988},
		{29, 0.5, 0.500000},
	}
	for _, tt := range tests {
		s, err := Log(tt.n)
		if err != nil {
			t.Fatal(err)
		}
		got := s.FailureProbability(tt.p)
		if math.Abs(got-tt.want) > 1e-6 {
			t.Errorf("CWlog(%d) p=%.1f: F = %.6f, paper %.6f", tt.n, tt.p, got, tt.want)
		}
	}
}

// TestTable4Sizes reproduces the CWlog quorum-size rows of Table 4.
func TestTable4Sizes(t *testing.T) {
	s14, _ := Log(14)
	if s14.MinQuorumSize() != 3 || s14.MaxQuorumSize() != 6 {
		t.Errorf("CWlog(14) sizes (%d,%d), want (3,6)", s14.MinQuorumSize(), s14.MaxQuorumSize())
	}
	s29, _ := Log(29)
	if s29.MinQuorumSize() != 4 || s29.MaxQuorumSize() != 10 {
		t.Errorf("CWlog(29) sizes (%d,%d), want (4,10)", s29.MinQuorumSize(), s29.MaxQuorumSize())
	}
	// ≈100 row: the 25-full-row wall (n = 99) has min 5, max 25.
	s99, _ := Log(99)
	if s99.Rows() != 25 {
		t.Fatalf("CWlog(99) has %d rows, want 25", s99.Rows())
	}
	if s99.MinQuorumSize() != 5 || s99.MaxQuorumSize() != 25 {
		t.Errorf("CWlog(99) sizes (%d,%d), want (5,25)", s99.MinQuorumSize(), s99.MaxQuorumSize())
	}
}

// TestSection6Strategy reproduces the §6 tradeoff-strategy figures: avg
// quorum 4 / load 55.5% on 14 processes, 5.25 / 43.7% on 29.
func TestSection6Strategy(t *testing.T) {
	s14, _ := Log(14)
	st := s14.TradeoffStrategy()
	if got := st.AvgQuorumSize(); math.Abs(got-4.0) > 1e-9 {
		t.Errorf("CWlog(14) avg quorum %.4f, want 4", got)
	}
	if got := st.Load(); math.Abs(got-5.0/9.0) > 1e-9 {
		t.Errorf("CWlog(14) load %.4f, want 0.5556", got)
	}
	s29, _ := Log(29)
	st29 := s29.TradeoffStrategy()
	if got := st29.AvgQuorumSize(); math.Abs(got-5.25) > 1e-9 {
		t.Errorf("CWlog(29) avg quorum %.4f, want 5.25", got)
	}
	if got := st29.Load(); math.Abs(got-0.4375) > 1e-9 {
		t.Errorf("CWlog(29) load %.4f, want 0.4375", got)
	}
}

// TestBalancedStrategyBeatsTradeoffLoad: the load-equalizing strategy must
// induce uniform loads and a lower maximum load than the tradeoff strategy.
func TestBalancedStrategyBeatsTradeoffLoad(t *testing.T) {
	for _, n := range []int{14, 29} {
		s, _ := Log(n)
		bal := s.BalancedStrategy()
		loads := bal.Loads()
		for i := 1; i < len(loads); i++ {
			if math.Abs(loads[i]-loads[0]) > 1e-9 {
				t.Fatalf("CWlog(%d): balanced loads not uniform: %v", n, loads)
			}
		}
		if bal.Load() >= s.TradeoffStrategy().Load() {
			t.Errorf("CWlog(%d): balanced load %.4f not below tradeoff %.4f",
				n, bal.Load(), s.TradeoffStrategy().Load())
		}
	}
}

func TestDPMatchesEnumeration(t *testing.T) {
	for _, n := range []int{5, 9, 14} {
		s, err := Log(n)
		if err != nil {
			t.Fatal(err)
		}
		counts := analysis.TransversalCounts(s)
		for _, p := range []float64{0.1, 0.3, 0.5} {
			want := analysis.Failure(counts, p)
			got := s.FailureProbability(p)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("CWlog(%d) p=%.1f: DP %.12f, enumeration %.12f", n, p, got, want)
			}
		}
	}
}

func TestIntersectionAndConsistency(t *testing.T) {
	for _, n := range []int{3, 8, 14} {
		s, err := Log(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := quorum.CheckPairwiseIntersection(s); err != nil {
			t.Errorf("CWlog(%d): %v", n, err)
		}
		if err := quorum.CheckAvailabilityConsistency(s); err != nil {
			t.Errorf("CWlog(%d): %v", n, err)
		}
	}
}

func TestPickConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 14} {
		s, _ := Log(n)
		if err := quorum.CheckPickConsistency(s, rng, 400); err != nil {
			t.Errorf("CWlog(%d): %v", n, err)
		}
	}
}

// TestGatePicks: Pick is Gate.Pick on the wall's formula, so its picks
// must be exactly the listed quorums — the enumerated minimal ones —
// including on walls whose width-1 rows collapse to a bare process.
func TestGatePicks(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, widths := range [][]int{{1, 2, 2, 3}, {2, 1, 3, 1, 2}, {1, 1, 1}} {
		s, err := NewWall(widths)
		if err != nil {
			t.Fatal(err)
		}
		if err := quorum.CheckPick(s.Gate(), s.n, rng, 500); err != nil {
			t.Errorf("wall %v: %v", widths, err)
		}
		want := make(map[string]bool)
		s.EnumerateQuorums(func(q bitset.Set) bool { want[q.String()] = true; return true })
		listed := s.Gate().Quorums(s.n)
		for _, q := range listed {
			if !want[q.String()] {
				t.Errorf("wall %v: gate lists %v, which is no minimal quorum", widths, q)
			}
		}
		if len(listed) != len(want) {
			t.Errorf("wall %v: gate lists %d quorums, enumeration %d", widths, len(listed), len(want))
		}
	}
}

// TestStrategyPickOnWidthOneRows: a strategy's pick based on any row is
// that row's quorum, with width-1 rows below it taken whole.
func TestStrategyPickOnWidthOneRows(t *testing.T) {
	s, err := NewWall([]int{2, 1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.BalancedStrategy()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		q := st.Pick(rng)
		if !s.Available(q) || !q.Contains(s.ID(3, 0)) {
			t.Fatalf("strategy pick %v is no quorum holding the width-1 bottom row", q)
		}
	}
}

func TestStrategySampling(t *testing.T) {
	s, _ := Log(14)
	st := s.TradeoffStrategy()
	rng := rand.New(rand.NewSource(3))
	sizes := 0.0
	const samples = 20000
	counts := make([]float64, 14)
	for i := 0; i < samples; i++ {
		q := st.Pick(rng)
		sizes += float64(q.Count())
		q.ForEach(func(id int) { counts[id]++ })
	}
	if avg := sizes / samples; math.Abs(avg-4.0) > 0.05 {
		t.Errorf("sampled avg quorum size %.3f, want ≈ 4", avg)
	}
	// Empirical loads must match the analytic ones within sampling noise.
	want := st.Loads()
	for id := range counts {
		got := counts[id] / samples
		if math.Abs(got-want[id]) > 0.02 {
			t.Errorf("process %d: empirical load %.4f, analytic %.4f", id, got, want[id])
		}
	}
}

func TestNewWallValidation(t *testing.T) {
	if _, err := NewWall(nil); err == nil {
		t.Error("empty wall accepted")
	}
	if _, err := NewWall([]int{1, 0}); err == nil {
		t.Error("zero-width row accepted")
	}
	if _, err := Log(0); err == nil {
		t.Error("Log(0) accepted")
	}
}

// TestQuickRandomWallsAreCoteries: any wall with positive row widths is a
// valid quorum system, and the DP matches enumeration on it.
func TestQuickRandomWallsAreCoteries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(4)
		widths := make([]int, rows)
		n := 0
		for i := range widths {
			widths[i] = 1 + rng.Intn(3)
			n += widths[i]
		}
		if n > 14 {
			return true
		}
		s, err := NewWall(widths)
		if err != nil {
			return false
		}
		if quorum.CheckPairwiseIntersection(s) != nil {
			return false
		}
		if quorum.CheckAvailabilityConsistency(s) != nil {
			return false
		}
		counts := analysis.TransversalCounts(s)
		for _, p := range []float64{0.15, 0.5} {
			if math.Abs(s.FailureProbability(p)-analysis.Failure(counts, p)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstUse: the gate is built on first use, and concurrent
// first users (the enumerator's workers, pickers, the availability
// queries) must share one build. Meaningful under -race.
func TestConcurrentFirstUse(t *testing.T) {
	sys, err := Log(14)
	if err != nil {
		t.Fatal(err)
	}
	live := bitset.Universe(sys.Universe())
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0:
				if !sys.Available(live) {
					t.Error("fully live system unavailable")
				}
			case 1:
				if sys.Gate() == nil {
					t.Error("no gate")
				}
			case 2:
				if _, err := sys.Pick(rand.New(rand.NewSource(int64(w))), live); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
}
