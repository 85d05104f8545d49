package hquorum

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestConstructorsProduceValidSystems(t *testing.T) {
	cw, err := NewCWlog(14)
	if err != nil {
		t.Fatal(err)
	}
	systems := []System{
		NewMajority(9),
		NewTieBreakMajority(8),
		NewGroupedHQS(3, 3),
		cw,
		NewHGrid(3, 3),
		NewFlatGrid(3, 3),
		NewHTGrid(4, 4),
		NewHTriang(5),
	}
	for _, sys := range systems {
		if err := Validate(sys); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}

func TestFacadeFailureProbabilities(t *testing.T) {
	// Spot-check Table 1 through the facade.
	fs := FailureProbabilities(NewHTGrid(4, 4), []float64{0.1})
	if math.Abs(fs[0]-0.005361) > 1e-5 {
		t.Fatalf("h-T-grid(4x4) F(0.1) = %v", fs[0])
	}
	// h-triang(5) from Table 2.
	fs = FailureProbabilities(NewHTriang(5), []float64{0.1})
	if math.Abs(fs[0]-0.000677) > 1e-5 {
		t.Fatalf("h-triang(5) F(0.1) = %v", fs[0])
	}
}

func TestEstimateAgreesWithExact(t *testing.T) {
	sys := NewHTriang(5)
	exact := FailureProbabilities(sys, []float64{0.3})[0]
	est, stderr := EstimateFailure(sys, 0.3, 40000, rand.New(rand.NewSource(1)))
	if math.Abs(est-exact) > 5*stderr+1e-3 {
		t.Fatalf("estimate %.5f±%.5f vs exact %.5f", est, stderr, exact)
	}
}

func TestLoadHelpers(t *testing.T) {
	sys := NewHTriang(5)
	if lb := LoadLowerBound(sys); math.Abs(lb-1.0/3) > 1e-12 {
		t.Fatalf("lower bound %v, want 1/3", lb)
	}
	avg, load, err := MeasureLoad(sys, rand.New(rand.NewSource(2)), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-5) > 1e-9 {
		t.Fatalf("avg quorum size %v, want 5", avg)
	}
	if load < 1.0/3-1e-9 {
		t.Fatalf("measured load %v below the optimum", load)
	}
}

func TestSetHelpers(t *testing.T) {
	s := NewSet(10)
	s.Add(3)
	if !s.Contains(3) || s.Count() != 1 {
		t.Fatal("set helpers broken")
	}
	if AllNodes(10).Count() != 10 {
		t.Fatal("AllNodes broken")
	}
}

// TestEndToEndMutex exercises the full public stack: a quorum system, the
// simulated cluster and the mutual-exclusion protocol.
func TestEndToEndMutex(t *testing.T) {
	net := NewNetwork(WithSeed(42), WithLatency(time.Millisecond, 5*time.Millisecond))
	sys := NewHTriang(4)
	holding := false
	var nodes []*MutexNode
	for i := 0; i < sys.Universe(); i++ {
		n, err := NewMutexNode(NodeID(i), MutexConfig{
			System:   sys,
			Workload: MutexWorkload{Count: 1, Hold: time.Millisecond, Think: time.Millisecond},
			OnAcquire: func(id NodeID, at time.Duration) {
				if holding {
					t.Fatalf("mutual exclusion violated at %v", at)
				}
				holding = true
			},
			OnRelease: func(id NodeID, at time.Duration) { holding = false },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(NodeID(i), n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.Start(net); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(30 * time.Second)
	for _, n := range nodes {
		if !n.Done() {
			t.Fatal("workload incomplete")
		}
	}
}

// submitSeq submits ops on replica id in order, each from the previous
// op's callback — Submit's sequential contract — appending the results to
// *out. The replica's wake schedules its start token on net.
func submitSeq(net *Network, id NodeID, r *Replica, out *[]RegisterResult, ops ...RegisterOp) {
	r.SetWake(func() { net.StartTimer(id, 0, r.StartToken()) })
	var next func(ops []RegisterOp)
	next = func(ops []RegisterOp) {
		if len(ops) == 0 {
			return
		}
		r.Submit(ops[0], func(res RegisterResult) {
			*out = append(*out, res)
			next(ops[1:])
		})
	}
	next(ops)
}

// TestEndToEndRegister exercises the replicated register through the
// facade.
func TestEndToEndRegister(t *testing.T) {
	net := NewNetwork(WithSeed(7))
	grid := ClusterParams{Flavor: FlavorHGrid, Rows: 4, Cols: 4, Members: MemberRange(0, 16)}
	var results []RegisterResult
	var replicas []*Replica
	for i := 0; i < 16; i++ {
		epochs, err := NewEpochStore(16, grid)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(NodeID(i), ReplicaConfig{Epochs: epochs})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(NodeID(i), r); err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	submitSeq(net, 0, replicas[0], &results, RegisterOp{Kind: OpWrite, Value: "hello"}, RegisterOp{Kind: OpRead})
	net.Run(30 * time.Second)
	if len(results) != 2 || results[1].Value != "hello" {
		t.Fatalf("results %+v", results)
	}
}

// TestEndToEndReconfig drives a live configuration swap entirely through
// the facade: epoch-versioned replicas start on majority quorums, a
// ReconfigToken moves them to the h-T-grid mid-workload, and the cluster
// settles on the stable target config with every operation completing.
func TestEndToEndReconfig(t *testing.T) {
	initial := ClusterParams{Flavor: FlavorMajority, Members: MemberRange(0, 16)}
	members, err := ParseMembers("0-15", 16)
	if err != nil {
		t.Fatal(err)
	}
	target := ClusterParams{Flavor: FlavorHTGrid, Rows: 4, Cols: 4, Members: members}

	net := NewNetwork(WithSeed(11))
	var results []RegisterResult
	var stores []*EpochStore
	var replicas []*Replica
	for i := 0; i < 16; i++ {
		es, err := NewEpochStore(16, initial)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(NodeID(i), ReplicaConfig{Epochs: es})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(NodeID(i), r); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, es)
		replicas = append(replicas, r)
	}
	submitSeq(net, 0, replicas[0], &results,
		RegisterOp{Kind: OpWrite, Value: "pre"}, RegisterOp{Kind: OpRead},
		RegisterOp{Kind: OpWrite, Value: "post"}, RegisterOp{Kind: OpRead})
	if err := net.StartTimer(1, 5*time.Millisecond, ReconfigToken(target)); err != nil {
		t.Fatal(err)
	}
	net.Run(30 * time.Second)

	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
	if results[3].Value != "post" {
		t.Fatalf("final read %q, want %q", results[3].Value, "post")
	}
	for i, es := range stores {
		if snap := es.Snapshot(); snap.Joint() || snap.Epoch != 3 || !snap.Cur.Equal(target) {
			t.Fatalf("replica %d did not settle on the target: %+v", i, snap)
		}
	}
}
