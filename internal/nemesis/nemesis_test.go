package nemesis

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/htgrid"
	"hquorum/internal/lease"
	"hquorum/internal/rkv"
)

// hgrid44 is the 16-node h-grid (row-cover reads, full-line writes) most
// register runs here start on.
func hgrid44() *epoch.Params {
	return &epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
}

// TestSchedulesWellFormed: every stock schedule validates, keeps all
// actions inside its horizon, and ends with the cluster fully recovered
// (every crash matched by a restart, every partition healed).
func TestSchedulesWellFormed(t *testing.T) {
	for _, n := range []int{9, 16} {
		scheds := append(DefaultSchedules(n), ColumnCut(4, 4), MidBurst(cluster.NodeID(n/2), n, 6, 4))
		for _, s := range scheds {
			if err := s.Validate(); err != nil {
				t.Errorf("n=%d %s: %v", n, s.Name, err)
			}
			down := map[cluster.NodeID]bool{}
			partitioned := false
			for _, a := range s.Actions {
				for _, id := range a.Crash {
					if down[id] {
						t.Errorf("n=%d %s: node %d crashed twice without restart", n, s.Name, id)
					}
					down[id] = true
				}
				for _, id := range a.Restart {
					if !down[id] {
						t.Errorf("n=%d %s: node %d restarted while up", n, s.Name, id)
					}
					delete(down, id)
				}
				if a.Heal {
					partitioned = false
				}
				if len(a.Partition) > 0 {
					partitioned = true
				}
			}
			if len(down) > 0 {
				t.Errorf("n=%d %s: schedule ends with crashed nodes %v", n, s.Name, down)
			}
			if partitioned {
				t.Errorf("n=%d %s: schedule ends partitioned", n, s.Name)
			}
		}
	}
}

// TestApplyRejectsOverlappingPartition: a malformed schedule is rejected
// up front and registers nothing.
func TestApplyRejectsOverlappingPartition(t *testing.T) {
	bad := Schedule{
		Name: "bad",
		Actions: []Action{
			{At: time.Second, Partition: [][]cluster.NodeID{{0, 1}, {1, 2}}},
		},
		Horizon: 5 * time.Second,
	}
	if err := Apply(cluster.New(), bad, nil); err == nil {
		t.Fatal("overlapping partition groups not rejected")
	}
	late := Schedule{
		Name:    "late",
		Actions: []Action{{At: 6 * time.Second, Heal: true}},
		Horizon: 5 * time.Second,
	}
	if err := Apply(cluster.New(), late, nil); err == nil {
		t.Fatal("action past horizon not rejected")
	}
}

// TestRunRKVFaultFree: with an empty schedule every operation completes
// and the history is linearizable.
func TestRunRKVFaultFree(t *testing.T) {
	res, err := RunRKV(RKVRun{
		Initial:  hgrid44(),
		Space:    16,
		Seed:     1,
		Schedule: Schedule{Name: "calm", Horizon: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("fault-free history not linearizable: %v", res.Err)
	}
	if want := 16 * 6; res.Completed != want || res.Failed != 0 || res.Pending != 0 {
		t.Fatalf("completed=%d failed=%d pending=%d, want %d/0/0",
			res.Completed, res.Failed, res.Pending, want)
	}
}

// TestRunRKVColumnCut: the full-line-killing partition makes writes fail
// with typed errors, but the history stays linearizable and the cluster
// finishes its workload after the heal.
func TestRunRKVColumnCut(t *testing.T) {
	res, err := RunRKV(RKVRun{
		Initial:  hgrid44(),
		Space:    16,
		Seed:     3,
		Schedule: ColumnCut(4, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("column-cut history not linearizable: %v", res.Err)
	}
	if res.Completed == 0 {
		t.Fatal("no operations completed")
	}
}

// TestRunRKVPipelinedCrashStorm: with Window > 1 each node keeps several
// client operations in flight; under correlated crashes the per-(node, op)
// virtual clients must still yield a linearizable history.
func TestRunRKVPipelinedCrashStorm(t *testing.T) {
	res, err := RunRKV(RKVRun{
		Initial:  hgrid44(),
		Space:    16,
		Seed:     7,
		Schedule: CrashStorm(16),
		Window:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("pipelined crash-storm history not linearizable: %v", res.Err)
	}
	if res.Completed == 0 {
		t.Fatal("no operations completed")
	}
}

// TestRunRKVMultiKeyBatched: a keyed workload with batched quorum rounds
// under correlated crashes — per-key linearizability must hold, every key
// must actually be exercised, and the run must stay deterministic.
func TestRunRKVMultiKeyBatched(t *testing.T) {
	run := func() RKVResult {
		res, err := RunRKV(RKVRun{
			Initial:    hgrid44(),
			Space:      16,
			Seed:       11,
			Schedule:   CrashStorm(16),
			OpsPerNode: 8,
			Window:     2,
			Batch:      4,
			Keys:       8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Err != nil {
		t.Fatalf("multi-key batched history not per-key linearizable: %v", res.Err)
	}
	if res.Completed == 0 {
		t.Fatal("no operations completed")
	}
	keys := map[string]bool{}
	for _, op := range res.Ops {
		keys[op.Key] = true
	}
	if len(keys) != 8 {
		t.Fatalf("workload touched %d keys, want 8", len(keys))
	}
	again := run()
	if fmt.Sprint(res.Ops) != fmt.Sprint(again.Ops) {
		t.Fatal("multi-key batched run not deterministic")
	}
}

// runWatched runs r and reports what the Submit-only paths did: the most
// rounds one node had in flight when a callback fired, whether a profiler
// window ever saw more than one op per round, the ops failed with
// rkv.ErrRestarted, and the reads leases answered locally.
func runWatched(t *testing.T, r RKVRun) (inflight int, batched bool, restarted int, localReads uint64) {
	t.Helper()
	var nodes []*rkv.Node
	res, err := runRKV(r, rkvProbe{
		boot: func(_ *cluster.Network, ns []*rkv.Node) { nodes = ns },
		result: func(rr rkv.Result) {
			n := nodes[rr.Node]
			inflight = max(inflight, n.Inflight())
			if wl := n.Workload(rr.At); wl.BatchedOps > wl.Batches {
				batched = true
			}
			if errors.Is(rr.Err, rkv.ErrRestarted) {
				restarted++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("history not linearizable: %v", res.Err)
	}
	for _, n := range nodes {
		localReads += n.LeaseStats().LocalReads
	}
	return inflight, batched, restarted, localReads
}

// TestSweepRunsSubmitPaths: the sweep's cells reach the paths only Submit
// drives. The pipelined cell keeps several rounds in flight on one node,
// the batched cell carries more than one op per round, and the crash storm
// over the lease holders answers reads locally and fails ops in flight on
// a crashed coordinator with ErrRestarted (some seed among the first 20
// does each: which ops a crash catches in flight is seed luck).
func TestSweepRunsSubmitPaths(t *testing.T) {
	grid := RKVRun{Initial: hgrid44(), Space: 16, Seed: 1, Schedule: CrashStorm(16)}
	w4 := grid
	w4.Window = 4
	if inflight, _, _, _ := runWatched(t, w4); inflight < 2 {
		t.Errorf("h-grid-4x4/w4: at most %d round(s) in flight, want ≥ 2", inflight)
	}
	k8b4 := grid
	k8b4.Window, k8b4.Batch, k8b4.Keys = 2, 4, 8
	if _, batched, _, _ := runWatched(t, k8b4); !batched {
		t.Error("h-grid-4x4/k8b4: no round carried more than one op")
	}
	maj9 := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	holder := RKVRun{Initial: &maj9, Space: 16, Schedule: CrashStorm(16),
		OpsPerNode: 12, Keys: 8, LeaseOn: []cluster.NodeID{0, 1},
		Lease: &lease.Config{Shards: 8, TTL: 400 * time.Millisecond, Check: 100 * time.Millisecond, MinReadFrac: -1, Acquire: true}}
	var restarted int
	var local uint64
	for holder.Seed = 1; holder.Seed <= 20 && (restarted == 0 || local == 0); holder.Seed++ {
		_, _, r, l := runWatched(t, holder)
		restarted, local = restarted+r, local+l
	}
	if restarted == 0 || local == 0 {
		t.Errorf("lease/maj9-holder: %d ErrRestarted failures, %d local reads in 20 seeds; want both", restarted, local)
	}
}

// TestMidBurstCrashesRoundsInFlight: the mid-burst schedule crashes the
// victim while its first burst's rounds are on the wire — in the pipelined
// and in the batched cell, on every seed probed — and those operations
// fail with rkv.ErrRestarted while the history stays linearizable.
func TestMidBurstCrashesRoundsInFlight(t *testing.T) {
	const victim = 6
	for _, c := range []struct {
		name                string
		window, batch, keys int
	}{{"h-grid-4x4/w4", 4, 1, 1}, {"h-grid-4x4/k8b4", 2, 4, 8}} {
		sched := MidBurst(victim, 16, 6, c.window*c.batch)
		crash := sched.Actions[0].At
		for seed := int64(1); seed <= 10; seed++ {
			var nodes []*rkv.Node
			inflight, restarted := 0, 0
			res, err := runRKV(RKVRun{Initial: hgrid44(), Space: 16, Seed: seed, Schedule: sched,
				OpsPerNode: 6, Window: c.window, Batch: c.batch, Keys: c.keys}, rkvProbe{
				boot: func(net *cluster.Network, ns []*rkv.Node) {
					nodes = ns
					net.Schedule(crash-1, func() { inflight = nodes[victim].Inflight() })
				},
				result: func(rr rkv.Result) {
					if rr.Node == victim && errors.Is(rr.Err, rkv.ErrRestarted) {
						restarted++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("%s seed %d: history not linearizable: %v", c.name, seed, res.Err)
			}
			if inflight == 0 || restarted == 0 {
				t.Errorf("%s seed %d: %d round(s) in flight at the %v crash, %d ErrRestarted failures; want both",
					c.name, seed, inflight, crash, restarted)
			}
		}
	}
}

// TestRunMutexCrashStorm: correlated crashes (including holders) must not
// produce overlapping holds, and the survivors keep entering.
func TestRunMutexCrashStorm(t *testing.T) {
	res, err := RunMutex(MutexRun{
		System:   htgrid.Auto(3, 3),
		Seed:     5,
		Schedule: CrashStorm(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("mutual exclusion violated: %v", res.Violations[0])
	}
	if res.Entries == 0 {
		t.Fatal("no critical sections entered")
	}
}

// TestSweepDeterministic: the same sweep produces byte-identical
// summaries — chaos results are diffable artifacts.
func TestSweepDeterministic(t *testing.T) {
	cases := []RKVCase{{
		Name:      "h-grid-4x4",
		RKVRun:    RKVRun{Initial: hgrid44(), Space: 16},
		Schedules: []Schedule{CrashStorm(16), LinkFlap(16)},
	}}
	mcases := []MutexCase{{
		Name:      "h-grid-3x3",
		System:    htgrid.Auto(3, 3),
		Schedules: []Schedule{RollingRestart(9)},
	}}
	opt := SweepOptions{Seeds: 3}
	render := func() string {
		sum, err := SweepRKV(cases, opt)
		if err != nil {
			t.Fatal(err)
		}
		msum, err := SweepMutex(mcases, opt)
		if err != nil {
			t.Fatal(err)
		}
		sum.Merge(msum)
		if sum.Violations() != 0 {
			t.Fatalf("sweep found violations:\n%s", sum)
		}
		return sum.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("summary not deterministic:\n--- first\n%s--- second\n%s", a, b)
	}
	if !strings.Contains(a, "crash-storm") || !strings.Contains(a, "rolling-restart") {
		t.Fatalf("summary missing schedule lines:\n%s", a)
	}
}
