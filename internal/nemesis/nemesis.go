// Package nemesis injects scripted fault schedules into the simulated
// cluster and sweeps protocols across seeds, checking recorded histories
// against their correctness conditions.
//
// A Schedule is a declarative list of timed Actions — crashes, restarts,
// partitions, heals — replayed into a cluster.Network at virtual
// timestamps via Network.Schedule. Because the simulation is a
// deterministic discrete-event system, a (schedule, seed) pair always
// produces the same run, so a sweep summary is byte-identical across
// re-runs: chaos results are diffable, bisectable regression artifacts
// rather than flaky noise.
//
// The package ships a standard suite of schedules (crash storms, rolling
// restarts, link flaps, minority partitions, churn, and grid-specific
// column cuts), runners that drive the replicated register (package rkv)
// and the distributed lock (package dmutex) under a schedule while
// recording histories (package history), and a Sweep layer that
// aggregates outcomes over many seeds.
package nemesis

import (
	"fmt"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
)

// Reconfig asks a coordinator node to drive the cluster to a new
// epoch-versioned configuration mid-run (see rkv's reconfiguration
// protocol). Only runners wired for epoch-versioned clusters honor it.
type Reconfig struct {
	// Coordinator is the node kicked with the reconfiguration token.
	Coordinator cluster.NodeID
	// Target is the configuration to move to.
	Target epoch.Params
}

// Action is one timed fault-injection step. Within an action, crashes are
// applied first, then restarts, then Heal, then Partition — so a single
// action can atomically swap one partition for another. Reconfig fires
// after the fault steps.
type Action struct {
	// At is the virtual time the action fires.
	At time.Duration
	// Crash lists nodes to crash (they lose pending messages and timers).
	Crash []cluster.NodeID
	// Restart lists nodes to bring back (their Restarted hook runs).
	Restart []cluster.NodeID
	// Heal removes any active partition.
	Heal bool
	// Partition installs a new partition; nodes absent from every group
	// form an implicit extra group. Groups must be disjoint.
	Partition [][]cluster.NodeID
	// Reconfig, when non-nil, starts a live configuration change.
	Reconfig *Reconfig
}

// Schedule is a named, replayable fault script.
type Schedule struct {
	Name    string
	Actions []Action
	// Horizon is how long the run lasts; it must lie past every action so
	// the cluster gets quiet time to recover and drain its workload.
	Horizon time.Duration
}

// Validate checks that the schedule is well-formed: non-negative action
// times below the horizon, and disjoint partition groups.
func (s Schedule) Validate() error {
	for i, a := range s.Actions {
		if a.At < 0 {
			return fmt.Errorf("nemesis: schedule %q action %d at negative time %v", s.Name, i, a.At)
		}
		if s.Horizon > 0 && a.At >= s.Horizon {
			return fmt.Errorf("nemesis: schedule %q action %d at %v is past horizon %v", s.Name, i, a.At, s.Horizon)
		}
		seen := make(map[cluster.NodeID]int)
		for gi, g := range a.Partition {
			for _, id := range g {
				if prev, ok := seen[id]; ok {
					return fmt.Errorf("nemesis: schedule %q action %d: node %d in partition groups %d and %d", s.Name, i, id, prev, gi)
				}
				seen[id] = gi
			}
		}
	}
	return nil
}

// Hooks observes schedule actions as they fire. OnCrash is called for
// every crash — history recorders use it to truncate the victim's
// in-flight critical section. OnReconfig is called for every Reconfig
// action; runners that build epoch-versioned clusters use it to kick the
// coordinator (a Reconfig action with no OnReconfig hook is ignored).
type Hooks struct {
	OnCrash    func(id cluster.NodeID, at time.Duration)
	OnReconfig func(rc Reconfig, at time.Duration)
}

// Apply replays the schedule into the network: each action is registered
// as a function event at its virtual timestamp. onCrash (optional) is
// called for every crash as it happens. Apply validates the schedule and
// registers nothing on error.
func Apply(net *cluster.Network, s Schedule, onCrash func(id cluster.NodeID, at time.Duration)) error {
	return ApplyHooks(net, s, Hooks{OnCrash: onCrash})
}

// ApplyHooks is Apply with the full observer set.
func ApplyHooks(net *cluster.Network, s Schedule, h Hooks) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, a := range s.Actions {
		a := a
		net.Schedule(a.At, func() {
			for _, id := range a.Crash {
				net.Crash(id)
				if h.OnCrash != nil {
					h.OnCrash(id, net.Now())
				}
			}
			for _, id := range a.Restart {
				net.Restart(id)
			}
			if a.Heal {
				net.Heal()
			}
			if len(a.Partition) > 0 {
				// Disjointness was validated above; Partition cannot fail.
				_ = net.Partition(a.Partition...)
			}
			if a.Reconfig != nil && h.OnReconfig != nil {
				h.OnReconfig(*a.Reconfig, net.Now())
			}
		})
	}
	return nil
}

// ids returns [lo, hi) as a NodeID slice.
func ids(lo, hi int) []cluster.NodeID {
	out := make([]cluster.NodeID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, cluster.NodeID(i))
	}
	return out
}

// CrashStorm crashes a quarter of the cluster at once, restarts it, then
// crashes a different quarter: correlated failures with recovery windows.
func CrashStorm(n int) Schedule {
	k := n / 4
	if k < 1 {
		k = 1
	}
	return Schedule{
		Name: "crash-storm",
		Actions: []Action{
			{At: 1 * time.Second, Crash: ids(0, k)},
			{At: 3 * time.Second, Restart: ids(0, k)},
			{At: 5 * time.Second, Crash: ids(k, 2*k)},
			{At: 7 * time.Second, Restart: ids(k, 2*k)},
		},
		Horizon: 25 * time.Second,
	}
}

// RollingRestart takes nodes down one at a time, each for 400ms, spaced
// so at most one node is down at once: the maintenance-window scenario.
func RollingRestart(n int) Schedule {
	var acts []Action
	for i := 0; i < n; i++ {
		down := time.Second + time.Duration(i)*600*time.Millisecond
		acts = append(acts,
			Action{At: down, Crash: []cluster.NodeID{cluster.NodeID(i)}},
			Action{At: down + 400*time.Millisecond, Restart: []cluster.NodeID{cluster.NodeID(i)}},
		)
	}
	return Schedule{
		Name:    "rolling-restart",
		Actions: acts,
		Horizon: time.Second + time.Duration(n)*600*time.Millisecond + 15*time.Second,
	}
}

// LinkFlap repeatedly splits the cluster for 300ms at a time — half/half
// three times, then evens/odds — exercising retry and re-pick paths
// without ever outlasting an operation deadline.
func LinkFlap(n int) Schedule {
	half := [][]cluster.NodeID{ids(0, n/2), ids(n/2, n)}
	var evens, odds []cluster.NodeID
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			evens = append(evens, cluster.NodeID(i))
		} else {
			odds = append(odds, cluster.NodeID(i))
		}
	}
	var acts []Action
	for f := 0; f < 3; f++ {
		at := time.Second + time.Duration(f)*time.Second
		acts = append(acts,
			Action{At: at, Partition: half},
			Action{At: at + 300*time.Millisecond, Heal: true},
		)
	}
	acts = append(acts,
		Action{At: 4 * time.Second, Partition: [][]cluster.NodeID{evens, odds}},
		Action{At: 4*time.Second + 300*time.Millisecond, Heal: true},
	)
	return Schedule{Name: "link-flap", Actions: acts, Horizon: 20 * time.Second}
}

// MinorityPartition isolates a quarter of the cluster for three seconds,
// then heals: the majority side must keep making progress throughout.
func MinorityPartition(n int) Schedule {
	m := n / 4
	if m < 1 {
		m = 1
	}
	return Schedule{
		Name: "minority-partition",
		Actions: []Action{
			{At: 1 * time.Second, Partition: [][]cluster.NodeID{ids(0, m), ids(m, n)}},
			{At: 4 * time.Second, Heal: true},
		},
		Horizon: 20 * time.Second,
	}
}

// Churn overlaps crash/restart cycles across the whole cluster: node i is
// down from 1s+i*300ms for 700ms, so several nodes are always mid-restart.
func Churn(n int) Schedule {
	var acts []Action
	for i := 0; i < n; i++ {
		down := time.Second + time.Duration(i)*300*time.Millisecond
		acts = append(acts,
			Action{At: down, Crash: []cluster.NodeID{cluster.NodeID(i)}},
			Action{At: down + 700*time.Millisecond, Restart: []cluster.NodeID{cluster.NodeID(i)}},
		)
	}
	return Schedule{
		Name:    "churn",
		Actions: acts,
		Horizon: time.Second + time.Duration(n)*300*time.Millisecond + 20*time.Second,
	}
}

// ColumnCut isolates column 0 of a rows×cols grid (row-major node IDs)
// for three seconds. On the 4×4 hierarchical grid this is the
// full-line-killing majority partition: every write quorum crosses the
// cut while read covers can dodge it, so writes must fail fast with
// typed errors and recover after the heal.
func ColumnCut(rows, cols int) Schedule {
	var col0 []cluster.NodeID
	for r := 0; r < rows; r++ {
		col0 = append(col0, cluster.NodeID(r*cols))
	}
	return Schedule{
		Name: "column-cut",
		Actions: []Action{
			{At: 1 * time.Second, Partition: [][]cluster.NodeID{col0}},
			{At: 4 * time.Second, Heal: true},
		},
		Horizon: 20 * time.Second,
	}
}

// linkDelay is one simulated link delay, the longest cluster.New draws
// (1–10ms): by then a burst's first frames have all landed, and none of
// its rounds has finished.
const linkDelay = 10 * time.Millisecond

// MidBurst crashes a pipelined coordinator while its first burst is in
// flight, and restarts it at 3s. RunRKV submits node victim's first
// burst of Window × Batch operations (burst) at gap·victim/space, gap
// being the fault window spread over the node's bursts of its
// opsPerNode operations; the crash lands one link delay later, so the
// burst's rounds are on the wire and their operations fail with
// rkv.ErrRestarted at the restart.
func MidBurst(victim cluster.NodeID, space, opsPerNode, burst int) Schedule {
	s := Schedule{
		Name:    "mid-burst",
		Actions: []Action{{At: 3 * time.Second, Restart: []cluster.NodeID{victim}}},
		Horizon: 20 * time.Second,
	}
	gap := window(s) / time.Duration((opsPerNode+burst-1)/burst)
	crash := Action{At: gap*time.Duration(victim)/time.Duration(space) + linkDelay, Crash: []cluster.NodeID{victim}}
	s.Actions = append([]Action{crash}, s.Actions...)
	return s
}

// ReconfigMidCrash reconfigures to target mid-workload while nodes crash
// around the transition: the listed nodes go down one second before the
// coordinator is kicked and come back one second after, so the
// configuration change runs with part of the cluster dark and must still
// settle. The schedule's Horizon leaves room for stragglers to catch up
// and the workload to drain under the new configuration.
func ReconfigMidCrash(coordinator cluster.NodeID, target epoch.Params, crash []cluster.NodeID) Schedule {
	acts := []Action{
		{At: 1 * time.Second, Crash: crash},
		{At: 2 * time.Second, Reconfig: &Reconfig{Coordinator: coordinator, Target: target}},
		{At: 3 * time.Second, Restart: crash},
	}
	return Schedule{Name: "reconfig-crash", Actions: acts, Horizon: 25 * time.Second}
}

// ReconfigQuiet reconfigures to target mid-workload with no faults: the
// baseline transition cell.
func ReconfigQuiet(coordinator cluster.NodeID, target epoch.Params) Schedule {
	return Schedule{
		Name: "reconfig-quiet",
		Actions: []Action{
			{At: 2 * time.Second, Reconfig: &Reconfig{Coordinator: coordinator, Target: target}},
		},
		Horizon: 20 * time.Second,
	}
}

// DefaultSchedules returns the standard chaos suite for an n-node
// cluster: crash storm, rolling restart, link flap, minority partition
// and churn. Grid-shaped systems typically append ColumnCut as well.
func DefaultSchedules(n int) []Schedule {
	return []Schedule{
		CrashStorm(n),
		RollingRestart(n),
		LinkFlap(n),
		MinorityPartition(n),
		Churn(n),
	}
}
