package nemesis

import (
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
)

// runReconfig drives one epoch-versioned chaotic run and asserts it
// settles at the expected epoch with a linearizable history.
func runReconfig(t *testing.T, seed int64, initial epoch.Params, space int, sched Schedule) RKVResult {
	t.Helper()
	res, err := RunRKV(RKVRun{
		Initial:  &initial,
		Space:    space,
		Seed:     seed,
		Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("history check: %v", res.Err)
	}
	if res.Joint {
		t.Fatal("cluster still on a joint config after drain")
	}
	if res.Epoch != 3 {
		t.Fatalf("final epoch = %d, want 3 (stable→joint→stable)", res.Epoch)
	}
	if res.Completed == 0 {
		t.Fatal("no operations completed")
	}
	return res
}

// TestRunRKVReconfigSwap swaps the quorum flavor (h-grid → h-T-grid) on a
// fixed membership mid-workload, quiet and with crashes around the
// transition.
func TestRunRKVReconfigSwap(t *testing.T) {
	initial := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	target := epoch.Params{Flavor: epoch.FlavorHTGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	for seed := int64(1); seed <= 3; seed++ {
		runReconfig(t, seed, initial, 16, ReconfigQuiet(0, target))
		runReconfig(t, seed, initial, 16, ReconfigMidCrash(0, target, []cluster.NodeID{5, 6}))
	}
}

// TestRunRKVReconfigGrow grows a majority-9 cluster into an h-grid over
// all 16 nodes while one of the incoming members is down for the
// transition window.
func TestRunRKVReconfigGrow(t *testing.T) {
	initial := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	target := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	for seed := int64(1); seed <= 3; seed++ {
		runReconfig(t, seed, initial, 16, ReconfigMidCrash(0, target, []cluster.NodeID{12}))
	}
}

// TestRunRKVReconfigDeterministic replays one (seed, schedule) pair and
// requires identical outcomes — the property that makes the chaos gate a
// diffable artifact.
func TestRunRKVReconfigDeterministic(t *testing.T) {
	initial := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	target := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	a := runReconfig(t, 7, initial, 16, ReconfigMidCrash(0, target, []cluster.NodeID{12}))
	b := runReconfig(t, 7, initial, 16, ReconfigMidCrash(0, target, []cluster.NodeID{12}))
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Pending != b.Pending ||
		a.Messages != b.Messages || a.Epoch != b.Epoch {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

// TestRunRKVCostAware runs the h-T-grid with every node picking the
// cheapest quorum (the top band is near) while the schedules crash and
// cut off exactly the line they all favour: the history stays
// linearizable, reads that rode write quorums included, and a replay is
// identical — cost-aware picks draw from the same seeded rng.
func TestRunRKVCostAware(t *testing.T) {
	initial := epoch.Params{Flavor: epoch.FlavorHTGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	cost := make([]time.Duration, 16)
	for i := range cost {
		cost[i] = 400 * time.Microsecond
		if i >= 8 {
			cost[i] = 20 * time.Millisecond
		}
	}
	run := func(seed int64, sched Schedule) RKVResult {
		res, err := RunRKV(RKVRun{Initial: &initial, Space: 16, Seed: seed, Schedule: sched, PickCost: cost})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("%s seed %d: history check: %v", sched.Name, seed, res.Err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s seed %d: no operations completed", sched.Name, seed)
		}
		return res
	}
	for seed := int64(1); seed <= 3; seed++ {
		run(seed, CrashStorm(16))
		run(seed, MinorityPartition(16))
	}
	a, b := run(7, CrashStorm(16)), run(7, CrashStorm(16))
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Pending != b.Pending || a.Messages != b.Messages {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
