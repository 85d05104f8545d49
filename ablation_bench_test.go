package hquorum

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// Definition 4.2 cover orientation, hierarchical vs flat sub-grids inside
// the h-triang, hierarchical vs flat grids overall, and the
// message/latency cost of running mutual exclusion over each
// construction.

import (
	"testing"
	"time"

	"hquorum/internal/analysis"
	"hquorum/internal/hgrid"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/quorum"
)

// BenchmarkAblationOrientation compares the two partial-row-cover
// orientations of the h-T-grid on the asymmetric 3×3 hierarchy (they
// coincide on symmetric grids). The literal Definition 4.2 orientation is
// the one matching the paper.
func BenchmarkAblationOrientation(b *testing.B) {
	h := hgrid.Auto(3, 3)
	var above, below float64
	for i := 0; i < b.N; i++ {
		above = analysis.FailureAt(htgrid.NewOriented(h, htgrid.OrientAboveLine), []float64{0.1})[0]
		below = analysis.FailureAt(htgrid.NewOriented(h, htgrid.OrientBelowLine), []float64{0.1})[0]
	}
	b.ReportMetric(above*1e6, "F(above,p=.1)x1e6") // 15213 = the paper's value
	b.ReportMetric(below*1e6, "F(below,p=.1)x1e6")
}

// BenchmarkAblationHierarchyVsFlat quantifies what the hierarchy buys: the
// read-write failure probability of the hierarchical 4×4 grid vs the flat
// grid protocol on the same processes.
func BenchmarkAblationHierarchyVsFlat(b *testing.B) {
	var hier, flat float64
	for i := 0; i < b.N; i++ {
		hier = 1 - hgrid.Auto(4, 4).Dist(0.9).Both
		flat = 1 - hgrid.Flat(4, 4).Dist(0.9).Both
	}
	b.ReportMetric(hier*1e6, "F(hier,p=.1)x1e6")
	b.ReportMetric(flat*1e6, "F(flat,p=.1)x1e6")
}

// BenchmarkAblationTriangleSubgrids compares hierarchical sub-grids (the
// paper's construction) against flat ones inside the 7-row h-triang — the
// convention that had to be reverse-engineered to match Table 3.
func BenchmarkAblationTriangleSubgrids(b *testing.B) {
	var hier, flat float64
	for i := 0; i < b.N; i++ {
		hier = htriang.New(7).FailureProbability(0.1)
		flat = flatSubgridTriangleFailure(7, 0.1)
	}
	b.ReportMetric(hier*1e6, "F(hierG,p=.1)x1e6") // 55 = the paper's value
	b.ReportMetric(flat*1e6, "F(flatG,p=.1)x1e6") // 75
}

// flatSubgridTriangleFailure evaluates the h-triang recursion with flat
// sub-grids (the rejected reading).
func flatSubgridTriangleFailure(k int, p float64) float64 {
	q := 1 - p
	var avail func(rows int) float64
	avail = func(rows int) float64 {
		if rows == 1 {
			return q
		}
		h1 := rows / 2
		h2 := rows - h1
		a := avail(h1)
		bb := avail(h2)
		d := hgrid.Flat(h2, h1).Dist(q)
		return d.Both*(a+bb-a*bb) + d.RCOnly*a + d.FLOnly*bb + d.None()*a*bb
	}
	return 1 - avail(k)
}

// BenchmarkMutexMessageCost sweeps the mutual-exclusion protocol across
// constructions of comparable size, reporting messages per critical
// section — the communication-cost comparison §1 motivates (smaller
// quorums → fewer messages).
func BenchmarkMutexMessageCost(b *testing.B) {
	systems := []quorum.System{
		NewHTriang(5),       // 15 nodes, quorums of 5
		NewHTGrid(4, 4),     // 16 nodes, quorums 4..7
		NewHGrid(4, 4),      // 16 nodes, quorums of 7
		NewMajority(15),     // 15 nodes, quorums of 8
		mustCWlog(14),       // 14 nodes, quorums 3..6
		NewGroupedHQS(5, 3), // 15 nodes, quorums of 6
	}
	for _, sys := range systems {
		b.Run(sys.Name(), func(b *testing.B) {
			var perEntry float64
			for i := 0; i < b.N; i++ {
				perEntry = mutexRoundMessages(b, sys, int64(i+1))
			}
			b.ReportMetric(perEntry, "msgs/entry")
		})
	}
}

func mustCWlog(n int) System {
	s, err := NewCWlog(n)
	if err != nil {
		panic(err)
	}
	return s
}

func mutexRoundMessages(b *testing.B, sys quorum.System, seed int64) float64 {
	b.Helper()
	net := NewNetwork(WithSeed(seed), WithLatency(time.Millisecond, 6*time.Millisecond))
	entries := 0
	var nodes []*MutexNode
	for j := 0; j < sys.Universe(); j++ {
		n, err := NewMutexNode(NodeID(j), MutexConfig{
			System:    sys,
			Workload:  MutexWorkload{Count: 2, Hold: time.Millisecond, Think: 4 * time.Millisecond},
			OnAcquire: func(NodeID, time.Duration) { entries++ },
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
	net.Run(time.Minute)
	for _, n := range nodes {
		if !n.Done() {
			b.Fatal("mutex round incomplete")
		}
	}
	return float64(net.Messages()) / float64(entries)
}
