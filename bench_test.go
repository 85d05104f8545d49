package hquorum

// One benchmark per table and figure of the paper's evaluation (the data
// itself — measured next to the published values — is regenerated by
// cmd/paper-tables; these benchmarks time the regeneration and report the
// headline reproduced numbers as metrics), plus micro-benchmarks of the
// hot paths: availability predicates, quorum picking and the exact
// counts.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/cwlog"
	"hquorum/internal/experiments"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
)

// BenchmarkTable1 regenerates Table 1 (h-grid DP + h-T-grid decision
// diagrams over the four grid configurations).
func BenchmarkTable1(b *testing.B) {
	var f01 float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		f01 = t.Rows[0].Cells[1].Measured // h-T-grid 3x3 at p=0.1
	}
	b.ReportMetric(f01, "F(hTgrid3x3,p=.1)")
}

// BenchmarkTable2 regenerates Table 2 (seven systems at ~15 nodes).
func BenchmarkTable2(b *testing.B) {
	var f01 float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		f01 = t.Rows[0].Cells[6].Measured // h-triang(15) at p=0.1
	}
	b.ReportMetric(f01*1e6, "F(htriang15,p=.1)x1e6")
}

// BenchmarkTable3 regenerates Table 3 (seven systems at ~28 nodes), exact:
// the closed forms, and the decision diagrams of the h-T-grid's gate and of
// Paths' and Y's graphs.
func BenchmarkTable3(b *testing.B) {
	var f01 float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table3()
		f01 = t.Rows[0].Cells[6].Measured // h-triang(28) at p=0.1
	}
	b.ReportMetric(f01*1e6, "F(htriang28,p=.1)x1e6")
}

// BenchmarkTable4 regenerates Table 4 (quorum sizes and loads at three
// scales, including the strategy simulations).
func BenchmarkTable4(b *testing.B) {
	var load float64
	for i := 0; i < b.N; i++ {
		groups := experiments.Table4()
		load = groups[1].Rows[6].Load // h-triang(28) load
	}
	b.ReportMetric(load, "load(htriang28)")
}

// BenchmarkTable5 regenerates Table 5 (asymptotic properties with load
// checks).
func BenchmarkTable5(b *testing.B) {
	var load float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table5()
		load = rows[6].CheckLoad
	}
	b.ReportMetric(load, "load(htriang28)")
}

// BenchmarkFigure1 renders Figure 1 (the 3-level 16-process hierarchy with
// a read-write quorum).
func BenchmarkFigure1(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Figure1())
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkFigure2 renders Figure 2 (the divided 5-row triangle).
func BenchmarkFigure2(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Figure2())
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkSection43Strategies reproduces §4.3's strategy numbers for the
// 4×4 h-T-grid (optimal line strategy exactly, perturbed by sampling).
func BenchmarkSection43Strategies(b *testing.B) {
	sys := htgrid.Auto(4, 4)
	rng := rand.New(rand.NewSource(1))
	var avg, load float64
	for i := 0; i < b.N; i++ {
		ls, err := sys.LineStrategy()
		if err != nil {
			b.Fatal(err)
		}
		avg, load = ls.AvgQuorumSize(), ls.Load()
		ps, err := sys.PerturbedStrategy(0.1)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = ps.Measure(rng, 2000)
	}
	b.ReportMetric(avg, "avgQuorum")
	b.ReportMetric(load, "load")
}

// BenchmarkSection6Strategies reproduces §6's CWlog tradeoff-strategy
// numbers (avg quorum 4, load 55.5% at n=14) and the h-triang balanced
// strategy (load 25% at n=28).
func BenchmarkSection6Strategies(b *testing.B) {
	var cwAvg, cwLoad, triLoad float64
	for i := 0; i < b.N; i++ {
		cw, err := cwlog.Log(14)
		if err != nil {
			b.Fatal(err)
		}
		ts := cw.TradeoffStrategy()
		cwAvg, cwLoad = ts.AvgQuorumSize(), ts.Load()
		st, err := htriang.New(7).BalancedStrategy()
		if err != nil {
			b.Fatal(err)
		}
		triLoad = st.Load()
	}
	b.ReportMetric(cwAvg, "cwlogAvgQuorum")
	b.ReportMetric(cwLoad, "cwlogLoad")
	b.ReportMetric(triLoad, "htriangLoad")
}

// --- Micro-benchmarks ---

// BenchmarkAvailabilityHTriang measures the h-triang availability predicate:
// the bitset path on a 91-process triangle.
func BenchmarkAvailabilityHTriang(b *testing.B) {
	b.Run("Set", func(b *testing.B) {
		sys := htriang.New(13) // 91 processes
		rng := rand.New(rand.NewSource(1))
		live := bitset.New(sys.Universe())
		for i := 0; i < sys.Universe(); i++ {
			if rng.Intn(10) < 8 {
				live.Add(i)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Available(live)
		}
	})
}

// BenchmarkAvailabilityHTGrid measures the h-T-grid availability predicate:
// the bitset path on a 10×10 grid.
func BenchmarkAvailabilityHTGrid(b *testing.B) {
	b.Run("Set", func(b *testing.B) {
		sys := htgrid.Auto(10, 10)
		rng := rand.New(rand.NewSource(1))
		live := bitset.New(100)
		for i := 0; i < 100; i++ {
			if rng.Intn(10) < 8 {
				live.Add(i)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Available(live)
		}
	})
}

// BenchmarkTransversalCountsHTGrid measures the exact counts of the
// h-T-grid through its decision diagram: the 5×5 grid of Table 1 and
// Table 3, and the 8×8 one (n = 64, the diagram's limit).
func BenchmarkTransversalCountsHTGrid(b *testing.B) {
	for _, size := range []int{5, 8} {
		sys := htgrid.Auto(size, size)
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analysis.TransversalCounts(sys)
			}
		})
	}
}

// BenchmarkPickHTriang measures quorum materialization.
func BenchmarkPickHTriang(b *testing.B) {
	sys := htriang.New(13)
	rng := rand.New(rand.NewSource(1))
	live := bitset.Universe(sys.Universe())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Pick(rng, live); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransversalCountsHTriang15 measures the exact counts of the
// 15-process h-triang, which its decision diagram gives.
func BenchmarkTransversalCountsHTriang15(b *testing.B) {
	sys := htriang.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.TransversalCounts(sys)
	}
}

// BenchmarkMutexRound runs a full mutual-exclusion round on the simulated
// cluster (15 nodes, one critical section each).
func BenchmarkMutexRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := NewNetwork(WithSeed(int64(i + 1)))
		sys := NewHTriang(5)
		var nodes []*MutexNode
		for j := 0; j < sys.Universe(); j++ {
			n, err := NewMutexNode(NodeID(j), MutexConfig{
				System:   sys,
				Workload: MutexWorkload{Count: 1, Hold: time.Millisecond, Think: time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := net.AddNode(NodeID(j), n); err != nil {
				b.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		for _, n := range nodes {
			if err := n.Start(net); err != nil {
				b.Fatal(err)
			}
		}
		net.Run(30 * time.Second)
		for _, n := range nodes {
			if !n.Done() {
				b.Fatal("simulation incomplete")
			}
		}
	}
}
