package bqs

import (
	"math"
	"math/rand"
	"testing"

	"hquorum/internal/bitset"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/quorum"
)

func TestThresholdSizes(t *testing.T) {
	tests := []struct {
		n, f  int
		class Class
		size  int
	}{
		{4, 1, Dissemination, 3},  // ⌈(4+2)/2⌉
		{7, 2, Dissemination, 5},  // ⌈(7+3)/2⌉
		{10, 3, Dissemination, 7}, // ⌈(10+4)/2⌉
		{5, 1, Masking, 4},        // ⌈(5+3)/2⌉
		{9, 2, Masking, 7},        // ⌈(9+5)/2⌉
		{13, 3, Masking, 10},      // ⌈(13+7)/2⌉
	}
	for _, tt := range tests {
		s, err := NewThreshold(tt.n, tt.f, tt.class)
		if err != nil {
			t.Fatalf("n=%d f=%d %v: %v", tt.n, tt.f, tt.class, err)
		}
		if s.MinQuorumSize() != tt.size {
			t.Errorf("n=%d f=%d %v: size %d, want %d", tt.n, tt.f, tt.class, s.MinQuorumSize(), tt.size)
		}
	}
}

func TestThresholdBounds(t *testing.T) {
	if _, err := NewThreshold(3, 1, Dissemination); err == nil {
		t.Error("n=3 f=1 dissemination accepted (needs 3f+1)")
	}
	if _, err := NewThreshold(4, 1, Masking); err == nil {
		t.Error("n=4 f=1 masking accepted (needs 4f+1)")
	}
	if _, err := NewThreshold(5, -1, Masking); err == nil {
		t.Error("negative f accepted")
	}
}

// TestThresholdIntersectionAndAvailability verifies the Byzantine
// conditions directly: any two quorums overlap in ≥ Overlap() servers, and
// removing any f servers leaves a quorum.
func TestThresholdIntersectionAndAvailability(t *testing.T) {
	for _, tt := range []struct {
		n, f  int
		class Class
	}{{4, 1, Dissemination}, {7, 2, Dissemination}, {5, 1, Masking}, {9, 2, Masking}} {
		s, err := NewThreshold(tt.n, tt.f, tt.class)
		if err != nil {
			t.Fatal(err)
		}
		// Worst case overlap of two size-q sets in [n]: 2q−n.
		if got := 2*s.MinQuorumSize() - tt.n; got < s.Overlap() {
			t.Errorf("%s: worst-case overlap %d < required %d", s.Name(), got, s.Overlap())
		}
		// Any f crashes leave a quorum.
		if tt.n-tt.f < s.MinQuorumSize() {
			t.Errorf("%s: f faults can exhaust quorums", s.Name())
		}
		rng := rand.New(rand.NewSource(1))
		if err := quorum.CheckPickConsistency(s, rng, 200); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestMGrid(t *testing.T) {
	m, err := NewMGrid(6, 3) // s = 2
	if err != nil {
		t.Fatal(err)
	}
	if m.Overlap() < 2*3+1 {
		t.Fatalf("overlap %d below 2f+1", m.Overlap())
	}
	if m.MinQuorumSize() != 2*2*6-4 {
		t.Fatalf("quorum size %d", m.MinQuorumSize())
	}
	rng := rand.New(rand.NewSource(2))
	live := bitset.Universe(36)
	// Sampled pairs intersect in ≥ 2f+1 servers.
	for i := 0; i < 50; i++ {
		q1, err := m.Pick(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := m.Pick(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		if got := q1.Intersect(q2).Count(); got < 2*3+1 {
			t.Fatalf("quorums intersect in %d < 7 servers", got)
		}
	}
	// Any f faults leave a quorum (each fault kills ≤1 row and ≤1 column).
	for trial := 0; trial < 100; trial++ {
		faulty := bitset.New(36)
		for faulty.Count() < 3 {
			faulty.Add(rng.Intn(36))
		}
		if !m.Available(faulty.Complement()) {
			t.Fatalf("f faults %v made the M-Grid unavailable", faulty)
		}
	}
	if _, err := NewMGrid(4, 3); err == nil {
		t.Error("k=4 f=3 accepted (f > k−s)")
	}
}

// TestClusteredOverHTriang: the paper's §7 adaptation — a Byzantine
// hierarchical triangle. Every pair of sampled quorums overlaps in at
// least f+1 (dissemination) / 2f+1 (masking) servers, and the system stays
// available under any f Byzantine faults.
func TestClusteredOverHTriang(t *testing.T) {
	for _, class := range []Class{Dissemination, Masking} {
		for _, f := range []int{1, 2} {
			base := htriang.New(4)
			c, err := NewClustered(base, f, class)
			if err != nil {
				t.Fatal(err)
			}
			if !c.ToleratesByzantine() {
				t.Fatalf("%s: base unavailable", c.Name())
			}
			rng := rand.New(rand.NewSource(int64(f)))
			live := bitset.Universe(c.Universe())
			var quorums []bitset.Set
			for i := 0; i < 30; i++ {
				q, err := c.Pick(rng, live)
				if err != nil {
					t.Fatal(err)
				}
				if q.Count() != base.MinQuorumSize()*c.Quota() {
					t.Fatalf("%s: quorum size %d", c.Name(), q.Count())
				}
				quorums = append(quorums, q)
			}
			for i := range quorums {
				for j := i + 1; j < len(quorums); j++ {
					if got := quorums[i].Intersect(quorums[j]).Count(); got < c.Overlap() {
						t.Fatalf("%s: overlap %d < %d", c.Name(), got, c.Overlap())
					}
				}
			}
			// Adversarial fault placement: any f faults (including all in
			// one cluster) leave the system available.
			for trial := 0; trial < 200; trial++ {
				faulty := bitset.New(c.Universe())
				if trial%2 == 0 {
					// Concentrate the faults in a single cluster.
					cl := rng.Intn(base.Universe())
					for i := 0; i < f; i++ {
						faulty.Add(cl*c.ClusterSize() + i)
					}
				} else {
					for faulty.Count() < f {
						faulty.Add(rng.Intn(c.Universe()))
					}
				}
				if !c.Available(faulty.Complement()) {
					t.Fatalf("%s: faults %v broke availability", c.Name(), faulty)
				}
			}
		}
	}
}

// TestClusteredCrashAnalysis: the clustered system plugs into the standard
// crash-probability machinery; more redundancy means lower failure
// probability at small p.
func TestClusteredCrashAnalysis(t *testing.T) {
	base := htriang.New(3) // 6 logical elements
	c1, err := NewClustered(base, 1, Dissemination)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Universe() != 24 {
		t.Fatalf("universe %d", c1.Universe())
	}
	// Monte Carlo crash availability vs the base system.
	rng := rand.New(rand.NewSource(4))
	failures := 0
	const samples = 20000
	p := 0.1
	for i := 0; i < samples; i++ {
		live := bitset.New(24)
		for s := 0; s < 24; s++ {
			if rng.Float64() >= p {
				live.Add(s)
			}
		}
		if !c1.Available(live) {
			failures++
		}
	}
	got := float64(failures) / samples
	if got > 0.05 {
		t.Fatalf("clustered failure probability %.4f implausibly high", got)
	}
}

// TestClusteredOverHTGrid: the transform works over the paper's other
// contribution too.
func TestClusteredOverHTGrid(t *testing.T) {
	c, err := NewClustered(htgrid.Auto(3, 3), 1, Masking)
	if err != nil {
		t.Fatal(err)
	}
	if c.ClusterSize() != 5 || c.Quota() != 4 || c.Overlap() != 3 {
		t.Fatalf("m=%d g=%d overlap=%d", c.ClusterSize(), c.Quota(), c.Overlap())
	}
	rng := rand.New(rand.NewSource(9))
	if err := quorum.CheckPickConsistency(c, rng, 150); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredValidation(t *testing.T) {
	if _, err := NewClustered(nil, 1, Masking); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewClustered(htriang.New(3), -1, Masking); err == nil {
		t.Error("negative f accepted")
	}
	// Hostile sizes: a cluster of 4f+1 or a server count past int.
	one := quorum.NewCoterie("one", 1, []bitset.Set{bitset.Universe(1)})
	if c, err := NewClustered(one, maxF, Masking); err != nil || c.Universe() != 4*maxF+1 || c.Quota() != 3*maxF+1 {
		t.Errorf("f=%d over one element: %v, want 4f+1 servers with quota 3f+1", maxF, err)
	}
	if _, err := NewClustered(one, maxF+1, Masking); err == nil {
		t.Error("f whose 4f+1 overflows accepted")
	}
	if _, err := NewClustered(htriang.New(4), 1<<60, Dissemination); err == nil {
		t.Error("10 clusters of 3·2^60+1 servers accepted")
	}
}

func TestMGridValidation(t *testing.T) {
	for _, c := range []struct{ k, f int }{{0, 0}, {3, -1}, {4, 3}, {3037000500, 0}, {5, math.MaxInt}} {
		if _, err := NewMGrid(c.k, c.f); err == nil {
			t.Errorf("NewMGrid(%d, %d) accepted", c.k, c.f)
		}
	}
	if m, err := NewMGrid(3037000499, 0); err != nil || m.Universe() != 3037000499*3037000499 {
		t.Errorf("largest k whose square fits: %v", err)
	}
}

// TestMGridGatePicks: Available and Pick evaluate and draw the grid's
// gate, so the gate's picks must be its listed quorums, each s full rows
// and s full columns, and Available must agree with counting full rows
// and columns on every live set of the 4×4 grid.
func TestMGridGatePicks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ k, f int }{{3, 0}, {4, 1}} {
		m, err := NewMGrid(c.k, c.f)
		if err != nil {
			t.Fatal(err)
		}
		n := m.Universe()
		if err := quorum.CheckPick(m.Gate(), n, rng, 500); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
		for _, q := range m.Gate().Quorums(n) {
			if rows, cols := fullLines(m.k, q); rows != m.s || cols != m.s || q.Count() != m.MinQuorumSize() {
				t.Errorf("%s: listed quorum %v has %d full rows, %d full columns", m.Name(), q, rows, cols)
			}
		}
	}
	m, err := NewMGrid(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := bitset.New(16)
	for mask := uint64(0); mask < 1<<16; mask++ {
		live.SetWord(mask)
		rows, cols := fullLines(4, live)
		if want := rows >= 2 && cols >= 2; m.Available(live) != want {
			t.Fatalf("Available(%v) = %t, %d full rows and %d full columns", live, !want, rows, cols)
		}
	}
}

// fullLines counts the fully contained rows and columns of a k×k grid.
func fullLines(k int, set bitset.Set) (rows, cols int) {
	for i := 0; i < k; i++ {
		row, col := true, true
		for j := 0; j < k; j++ {
			row = row && set.Contains(i*k+j)
			col = col && set.Contains(j*k+i)
		}
		if row {
			rows++
		}
		if col {
			cols++
		}
	}
	return rows, cols
}

func TestClassString(t *testing.T) {
	if Dissemination.String() != "dissemination" || Masking.String() != "masking" {
		t.Fatal("Class.String broken")
	}
}
