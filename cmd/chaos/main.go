// Command chaos sweeps the quorum protocols across seeded fault
// schedules and checks every recorded history against its correctness
// condition: linearizability for the replicated register, mutual
// exclusion for the distributed lock.
//
// The sweep is deterministic — same flags, same summary, byte for byte —
// so its output is a diffable regression artifact (scripts/chaos.sh runs
// it twice and diffs). The exit status is 1 if any run violated safety
// or any linearizability search was undecided (state budget exceeded —
// a history nobody checked is not a pass), 2 on usage errors, 0
// otherwise.
//
// Usage:
//
//	chaos -seeds 200
//	chaos -seeds 50 -ops 8 -count 3 -seed-base 1000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/htgrid"
	"hquorum/internal/lease"
	"hquorum/internal/nemesis"
	"hquorum/internal/tuner"
)

func main() {
	seeds := flag.Int("seeds", 200, "seeds per (case, schedule) cell")
	seedBase := flag.Int64("seed-base", 1, "first seed of the sweep")
	ops := flag.Int("ops", 6, "register operations per node (writes alternating with reads)")
	count := flag.Int("count", 2, "lock critical sections per node")
	stateLimit := flag.Int("state-limit", 0, "linearizability search budget (0 = default)")
	flag.Parse()
	if *seeds <= 0 {
		fmt.Fprintln(os.Stderr, "chaos: -seeds must be positive")
		os.Exit(2)
	}

	gridSchedules := append(nemesis.DefaultSchedules(16), nemesis.ColumnCut(4, 4))
	// The pipelined and batched cells also crash node 6 while its first
	// Window × Batch burst is in flight: the grid schedules' crashes miss
	// their coordinators' rounds (a node's two bursts never coincide with
	// its own crash), and this one is timed from the runner's pacing.
	midBurst := func(window, batch int) []nemesis.Schedule {
		return append(slices.Clip(gridSchedules), nemesis.MidBurst(6, 16, *ops, window*batch))
	}
	// Every register cell is epoch-versioned: one epoch.Params, one
	// epoch store per node — the path kvd, the gateway and hqbench run.
	// The reconfiguration cells' schedules also kick a live config change
	// mid-workload; every such run must settle at epoch 3 (stable → joint
	// → stable) with a linearizable history across the boundary, or the
	// sweep counts a violation.
	initGrid := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	initMaj := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	maj5 := epoch.Params{Flavor: epoch.FlavorMajority, R: 3, W: 3, Members: epoch.MemberRange(0, 5)}
	toHTGrid := epoch.Params{Flavor: epoch.FlavorHTGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	toGrid := initGrid
	// The cost-aware cell's topology: the top band is every node's near
	// region, so all sixteen coordinators converge on the same few
	// quorums and the schedules crash and cut exactly those.
	nearTop := make([]time.Duration, 16)
	for i := range nearTop {
		nearTop[i] = 400 * time.Microsecond
		if i >= 8 {
			nearTop[i] = 20 * time.Millisecond
		}
	}
	// The lease cells' holder config (the runner hands each holder its own
	// copy). MinReadFrac < 0 is deliberate — the mixed workload would never
	// qualify as read-heavy, and these cells exist to stress the barrier
	// and the holder's local paths, not the grant policy.
	leaseCfg := &lease.Config{
		Shards:      8,
		TTL:         400 * time.Millisecond,
		Check:       100 * time.Millisecond,
		MinReadFrac: -1,
		Acquire:     true,
	}
	rkvCases := []nemesis.RKVCase{
		{Name: "h-grid-4x4", RKVRun: nemesis.RKVRun{Initial: &initGrid, Space: 16}, Schedules: gridSchedules},
		{Name: "h-T-grid-4x4", RKVRun: nemesis.RKVRun{Initial: &toHTGrid, Space: 16}, Schedules: gridSchedules},
		// Pipelined cell: each node keeps up to 4 operations in flight, so
		// the checker exercises concurrent ops from one node under faults.
		{Name: "h-grid-4x4/w4", RKVRun: nemesis.RKVRun{Initial: &initGrid, Space: 16, Window: 4}, Schedules: midBurst(4, 1)},
		// Multi-key batched cell: the workload spans 8 keys with 4 ops
		// coalesced per quorum round; linearizability is checked per key.
		{Name: "h-grid-4x4/k8b4", RKVRun: nemesis.RKVRun{Initial: &initGrid, Space: 16, Window: 2, Batch: 4, Keys: 8}, Schedules: midBurst(2, 4)},
		// Flavor swap under crashes: h-grid → h-T-grid on fixed membership
		// while two nodes are dark around the transition.
		{Name: "rc/h44-hT44", RKVRun: nemesis.RKVRun{Initial: &initGrid, Space: 16}, WantEpoch: 3,
			Schedules: []nemesis.Schedule{
				nemesis.ReconfigQuiet(0, toHTGrid),
				nemesis.ReconfigMidCrash(0, toHTGrid, []cluster.NodeID{5, 6}),
			}},
		// Growth under crashes: majority-9 → h-grid over all 16 nodes with
		// an incoming member down for the transition window.
		{Name: "rc/maj9-h44", RKVRun: nemesis.RKVRun{Initial: &initMaj, Space: 16}, WantEpoch: 3,
			Schedules: []nemesis.Schedule{
				nemesis.ReconfigMidCrash(0, toGrid, []cluster.NodeID{12}),
			}},
		// Cost-aware cell: h-T-grid with every node picking the cheapest
		// quorum (rkv.Config.PickCost) — reads ride write quorums, and a
		// suspected member forces an exact re-pick of the next cheapest
		// quorum rather than a random draw. Crashes take out members of
		// the one cheapest line; the partition strands coordinators on
		// the minority side with their favourite quorum across the cut.
		// That line is a write quorum, so reads that find it unanimous end
		// after one round (OneRound: the lines print how many did).
		{Name: "hT44/cost", RKVRun: nemesis.RKVRun{Initial: &toHTGrid, Space: 16, PickCost: nearTop}, OneRound: true,
			Schedules: []nemesis.Schedule{nemesis.CrashStorm(16), nemesis.MinorityPartition(16)}},
		// Durable cells: every node runs the disk backend, so a restarted
		// node replays its WAL instead of coming back empty — the combined
		// history must still be linearizable per key.
		{Name: "h-grid-4x4/disk", RKVRun: nemesis.RKVRun{Initial: &initGrid, Space: 16, Disk: true, Shards: 4},
			Schedules: []nemesis.Schedule{nemesis.CrashStorm(16), nemesis.Churn(16)}},
		{Name: "majority-5/disk", RKVRun: nemesis.RKVRun{Initial: &maj5, Space: 5, Disk: true, Shards: 4}, OneRound: true,
			Schedules: []nemesis.Schedule{nemesis.RollingRestart(5)}},
		// Reconfiguration with disk recovery: the crashed nodes rejoin the
		// new epoch from their replayed logs.
		{Name: "rc/h44-hT44/disk", RKVRun: nemesis.RKVRun{Initial: &initGrid, Space: 16, Disk: true, Shards: 4}, WantEpoch: 3,
			Schedules: []nemesis.Schedule{
				nemesis.ReconfigMidCrash(0, toHTGrid, []cluster.NodeID{5, 6}),
			}},
		// Lease cells: holders serve reads locally under a short TTL while
		// writers clear the invalidation barrier, with the usual
		// per-key linearizability check over the combined history.
		//
		// lease/maj9-holder crashes the leaseholders themselves: nodes 0
		// and 1 hold leases and sit squarely in the crash storm's first
		// wave, so members must keep blocking conflicting writes until the
		// dead holders' entries provably expire, then let writes flow.
		{Name: "lease/maj9-holder", RKVRun: nemesis.RKVRun{Initial: &initMaj, Space: 16,
			OpsPerNode: 12, Keys: 8,
			Lease:   leaseCfg,
			LeaseOn: []cluster.NodeID{0, 1}},
			Schedules: []nemesis.Schedule{nemesis.CrashStorm(16)}},
		// lease/maj9-writer crashes writers mid-invalidation: the holder
		// (node 8) goes dark first so every writer stalls in its
		// invalidation phase against a dead leaseholder, then two writers
		// crash inside that window. Their maybe-writes must stay safe and
		// the survivors must unblock once the lease provably expires.
		{Name: "lease/maj9-writer", RKVRun: nemesis.RKVRun{Initial: &initMaj, Space: 16,
			OpsPerNode: 12, Keys: 8,
			Lease:   leaseCfg,
			LeaseOn: []cluster.NodeID{8}},
			Schedules: []nemesis.Schedule{{
				Name: "writer-mid-inval",
				Actions: []nemesis.Action{
					{At: 1500 * time.Millisecond, Crash: []cluster.NodeID{8}},
					{At: 1600 * time.Millisecond, Crash: []cluster.NodeID{2, 5}},
					{At: 3 * time.Second, Restart: []cluster.NodeID{2, 5, 8}},
					{At: 5 * time.Second, Crash: []cluster.NodeID{3}},
					{At: 6 * time.Second, Restart: []cluster.NodeID{3}},
				},
				Horizon: 20 * time.Second,
			}}},
		// lease/maj9-pipe is the holder as hqbench runs it: node 8 pipelines
		// Window 4 × Batch 4 over four times everyone's workload, submitted
		// in three bursts of sixteen, so locally versioned writes and local
		// reads share batches, and rounds, with each other. The runner
		// spreads node 8's bursts a third of the 6.9 s fault window apart
		// from 1.15 s, and the schedule is cut to the first: members 2 and 5
		// go dark just before it, stalling rounds stamped from the local
		// store while the lease runs out unrenewed (every grant and renewal
		// needs every node's ack); the holder crashes at 1.2 s with such
		// rounds on the wire (199 of 200 seeds; their ops fail with
		// rkv.ErrRestarted), and its later bursts re-acquire and run leased
		// after the restart. Only the holder pipelines: with every node
		// four-deep the all-ack grant wave always meets an in-flight write,
		// the lease never activates and the cell proves nothing (the
		// grants/local_versions columns fail such a cell).
		{Name: "lease/maj9-pipe", RKVRun: nemesis.RKVRun{Initial: &initMaj, Space: 16,
			OpsPerNode: 12, Keys: 8,
			Lease:        leaseCfg,
			LeaseOn:      []cluster.NodeID{8},
			HolderWindow: 4, HolderBatch: 4},
			Schedules: []nemesis.Schedule{{
				Name: "holder-mid-pipe",
				Actions: []nemesis.Action{
					{At: 1100 * time.Millisecond, Crash: []cluster.NodeID{2, 5}},
					{At: 1200 * time.Millisecond, Crash: []cluster.NodeID{8}},
					{At: 1500 * time.Millisecond, Restart: []cluster.NodeID{2, 5}},
					{At: 1600 * time.Millisecond, Restart: []cluster.NodeID{8}},
					{At: 4500 * time.Millisecond, Crash: []cluster.NodeID{3}},
					{At: 4900 * time.Millisecond, Restart: []cluster.NodeID{3}},
				},
				Horizon: 20 * time.Second,
			}}},
		// hT44/sut is hqbench's system under faults: a 4×4 h-T-grid on disk
		// with cost-aware picks (reads that find the top line unanimous end
		// after one round) and one lease holder submitting Window 8 × Batch
		// 8 bursts, as a gateway session does, while every other node stays
		// sequential so the all-ack grant wave can complete. Node 6 holds:
		// the crash storm's second wave takes it down with its leases live,
		// and its first burst lands inside the minority partition.
		{Name: "hT44/sut", RKVRun: nemesis.RKVRun{Initial: &toHTGrid, Space: 16,
			OpsPerNode: 16, Keys: 8, Disk: true, Shards: 4, PickCost: nearTop,
			Lease:        leaseCfg,
			LeaseOn:      []cluster.NodeID{6},
			HolderWindow: 8, HolderBatch: 8}, OneRound: true,
			Schedules: []nemesis.Schedule{nemesis.CrashStorm(16), nemesis.MinorityPartition(16)}},
		// Auto-tune under fire: no schedule Reconfig — node 0's workload
		// tuner drives the swaps itself off the measured mix, which shifts
		// from 50/50 to 95% reads mid-run while the crash storm takes the
		// tuning node (and later a second wave) down. The margins are
		// relaxed because the runner forces read write-back; the cell
		// asserts per-key linearizability across however many swaps the
		// tuner lands, not a fixed final epoch.
		{Name: "tune/maj9-shift", RKVRun: nemesis.RKVRun{Initial: &initMaj, Space: 16,
			OpsPerNode: 40, Keys: 8, ShiftReads: 0.95,
			AutoTune: &tuner.Policy{
				Interval: 250 * time.Millisecond,
				Span:     3 * time.Second,
				HoldFor:  2,
				MinOps:   8,
				MinGain:  1.1,
				MinAvail: 0.8,
			}},
			Schedules: []nemesis.Schedule{nemesis.CrashStorm(16)}},
	}
	mutexCases := []nemesis.MutexCase{
		{Name: "h-grid-3x3", System: htgrid.Auto(3, 3), Schedules: nemesis.DefaultSchedules(9)},
	}

	opt := nemesis.SweepOptions{
		Seeds:      *seeds,
		SeedBase:   *seedBase,
		OpsPerNode: *ops,
		Count:      *count,
		StateLimit: *stateLimit,
	}
	sum, err := nemesis.SweepRKV(rkvCases, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	msum, err := nemesis.SweepMutex(mutexCases, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	sum.Merge(msum)

	os.Exit(report(os.Stdout, sum))
}

// report prints the sweep summary and its verdict and returns the exit
// status: 1 when any run violated safety or was left undecided.
func report(w io.Writer, sum *nemesis.Summary) int {
	fmt.Fprint(w, sum)
	status := 0
	if n := sum.Undecided(); n > 0 {
		fmt.Fprintf(w, "FAIL: %d run(s) undecided: the linearizability search exceeded its state budget (raise -state-limit)\n", n)
		status = 1
	}
	if n := sum.Violations(); n > 0 {
		fmt.Fprintf(w, "FAIL: %d run(s) violated safety\n", n)
		status = 1
	}
	if status == 0 {
		fmt.Fprintln(w, "ok: no safety violations")
	}
	return status
}
