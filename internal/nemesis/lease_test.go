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
		Name: "lease/piped", Initial: &initial, Space: 16,
		Ops: 12, Keys: 8,
		Lease:        &lc,
		LeaseOn:      []cluster.NodeID{8},
		HolderWindow: 4, HolderBatch: 4,
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
