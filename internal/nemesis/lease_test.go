package nemesis

import (
	"strings"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/lease"
)

// pipedLeaseCase mirrors the lease/maj9-pipe chaos cell: only the
// holder pipelines (Window 4 × Batch 4), everyone else stays sequential.
func pipedLeaseCase(lc lease.Config) RKVCase {
	initial := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	return RKVCase{
		Name: "lease/piped",
		RKVRun: RKVRun{
			Initial: &initial, Space: 16,
			OpsPerNode: 12, Keys: 8,
			Lease:        &lc,
			LeaseOn:      []cluster.NodeID{8},
			HolderWindow: 4, HolderBatch: 4,
		},
		Schedules: []Schedule{CrashStorm(16)},
	}
}

// TestSweepLeaseCellExercisesLease: a lease cell's summary line carries
// its summed grants and locally versioned writes, the pipelined-holder
// cell really gets both under the crash storm, and a lease cell whose
// lease never activates is a failed cell, not a quietly green one.
func TestSweepLeaseCellExercisesLease(t *testing.T) {
	lc := lease.Config{Shards: 8, TTL: 400 * time.Millisecond, Check: 100 * time.Millisecond, MinReadFrac: -1, Acquire: true}
	idle := lc
	idle.Acquire = false
	sum, err := SweepRKV([]RKVCase{pipedLeaseCase(lc), pipedLeaseCase(idle)}, SweepOptions{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	live, dead := sum.Lines[0], sum.Lines[1]
	if live.Violations != 0 || live.Undecided != 0 || live.Grants == 0 || live.LocalVersions == 0 {
		t.Fatalf("pipelined holder cell: %+v", live)
	}
	if dead.Violations != 1 || !strings.Contains(dead.FirstViolation, "lease path not exercised") {
		t.Fatalf("a lease cell that never held a lease must fail: %+v", dead)
	}
	if out := sum.String(); !strings.Contains(out, " grants=") || !strings.Contains(out, " local_versions=") {
		t.Fatalf("lease lines lack their counters:\n%s", out)
	}
	t.Logf("\n%s", sum)
}

// TestSweepOneRoundCellExercisesPath: a one-round cell's line carries its
// summed reads finished at phase 1; a majority cell gets some under the
// rolling restart, and an h-grid cell marked OneRound — its reads are
// row-covers, which hold no full-line — is a failed cell, not a quietly
// green one.
func TestSweepOneRoundCellExercisesPath(t *testing.T) {
	maj := epoch.Params{Flavor: epoch.FlavorMajority, R: 3, W: 3, Members: epoch.MemberRange(0, 5)}
	grid := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 3, Cols: 3, Members: epoch.MemberRange(0, 9)}
	sum, err := SweepRKV([]RKVCase{
		{Name: "maj5", RKVRun: RKVRun{Initial: &maj, Space: 5}, OneRound: true, Schedules: []Schedule{RollingRestart(5)}},
		{Name: "h33", RKVRun: RKVRun{Initial: &grid, Space: 9}, OneRound: true, Schedules: []Schedule{RollingRestart(9)}},
	}, SweepOptions{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	covers, never := sum.Lines[0], sum.Lines[1]
	if covers.Violations != 0 || covers.Undecided != 0 || covers.OneRoundReads == 0 {
		t.Fatalf("majority cell: %+v", covers)
	}
	if never.OneRoundReads != 0 || never.Violations != 1 || !strings.Contains(never.FirstViolation, "one-round read path not exercised") {
		t.Fatalf("a one-round cell whose reads never cover a write quorum must fail: %+v", never)
	}
	if out := sum.String(); strings.Count(out, " one_round_reads=") != 2 {
		t.Fatalf("one-round lines lack their counter:\n%s", out)
	}
}
