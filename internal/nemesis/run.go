package nemesis

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/dmutex"
	"hquorum/internal/epoch"
	"hquorum/internal/history"
	"hquorum/internal/lease"
	"hquorum/internal/quorum"
	"hquorum/internal/rkv"
	"hquorum/internal/tuner"
)

// drainBudget bounds how long past the schedule horizon a runner keeps
// the simulation going waiting for workloads to finish. Operations are
// deadline-bounded, so a live cluster always drains well within it.
const drainBudget = 60 * time.Second

// drain advances the simulation in half-second slices until done reports
// true or the budget runs out.
func drain(net *cluster.Network, done func() bool, budget time.Duration) {
	deadline := net.Now() + budget
	for net.Now() < deadline && !done() {
		net.Run(net.Now() + 500*time.Millisecond)
	}
}

// window returns the schedule's active fault window: the time of its last
// action plus recovery slack. Runners pace their workloads across it so
// operations are in flight when faults land — a workload that finishes
// before the first crash tests nothing.
func window(s Schedule) time.Duration {
	var last time.Duration
	for _, a := range s.Actions {
		if a.At > last {
			last = a.At
		}
	}
	return last + 2*time.Second
}

// RKVRun parameterizes one chaotic replicated-register run.
type RKVRun struct {
	Seed     int64
	Schedule Schedule
	// Initial (required) is the cluster's first configuration: every node
	// gets its own epoch store seeded with it, operations carry epochs on
	// the wire, and the schedule's Reconfig actions kick live
	// configuration changes. Space (required) is the node-ID space (the
	// number of simulated nodes, which may exceed the initial member count
	// so the cluster can grow). The workload runs on the initial members
	// only — non-members are pure replicas until a reconfiguration pulls
	// them in.
	Initial *epoch.Params
	Space   int
	// OpsPerNode is each node's workload length, alternating writes of
	// globally unique values with reads (default 6).
	OpsPerNode int
	// ShiftReads, when in (0, 1), makes the second half of every node's
	// workload read-heavy: instead of the first half's strict write/read
	// alternation (a 50% read mix), a second-half slot is a write only
	// once every round(1/(1-ShiftReads)) slots, staggered across nodes.
	// This is the mid-run 50% → ShiftReads·100% mix shift a workload-aware
	// auto-tuner is expected to react to.
	ShiftReads float64
	// AutoTune, when set, arms the workload-aware quorum tuner on node 0:
	// the node profiles its local operation mix and drives live epoch
	// reconfigurations whenever another configuration beats the current
	// one by the policy's margin (see rkv.Config.AutoTune).
	// Chaos policies want relaxed MinGain/MinAvail: the runner forces read
	// write-back, so almost every read pays a write-quorum round and the
	// measured gain of asymmetric reads is smaller than on live clusters.
	AutoTune *tuner.Policy
	// Window and Batch are each node's rkv.Config.Window and Batch
	// (default 1). A node whose Window × Batch exceeds one submits its
	// workload in bursts of that many operations, so the window fills with
	// full batches; the operations of a burst are concurrent, so each is
	// recorded under its own virtual history client (the linearizability
	// checker requires each client's operations to be sequential).
	Window int
	Batch  int
	// Keys spreads the workload across this many keys (default 1: the
	// classic single register, key ""). With Keys > 1 the history is
	// checked for linearizability per key.
	Keys int
	// Timeout is the per-attempt quorum patience (default 100ms).
	Timeout time.Duration
	// OpDeadline bounds each operation across retries (default 2s).
	OpDeadline time.Duration
	// StateLimit caps the linearizability search (default
	// history.DefaultStateLimit).
	StateLimit int
	// Lease arms the read-lease protocol. The member-side table runs on
	// every node regardless; the nodes in LeaseOn (default: node 0) also
	// run the holder policy with this config — acquiring leases, serving
	// reads locally, and forcing writers through the invalidation
	// barrier. The runner arms each holder's policy tick at start, and a
	// crash-restart re-arms it through rkv's Restarted hook.
	Lease   *lease.Config
	LeaseOn []cluster.NodeID
	// HolderWindow and HolderBatch, when positive, replace Window and
	// Batch on the lease holders only: the holder pipelines while every
	// other node stays sequential, and runs HolderBatch× the workload in
	// bursts, so its leases live under a write rate the other cells
	// already show them surviving. (Pipelining every node starves the
	// lease instead: the all-ack grant wave always meets some member's
	// in-flight write phase and is nacked, so nothing leased ever runs.)
	HolderWindow, HolderBatch int
	// Disk backs every node with the WAL storage backend in a temporary
	// directory: a crash-restarted node drops its memory image and
	// recovers by replaying its log, instead of the memory backend's
	// ideal stable storage. Runs use WALNoSync — the simulation's crash
	// kills a process, not the machine, so write()-visible bytes are
	// exactly what survives and fsync adds syscalls without fidelity —
	// and a small SnapshotEvery so sweeps exercise snapshot truncation
	// and replay, not just appends.
	Disk bool
	// Shards overrides each node's rkv.Config.Shards (0 = rkv default).
	// Disk runs keep it small so per-shard files stay few.
	Shards int
	// PickCost, when set, makes every node's quorum picks cost-aware (see
	// rkv.Config.PickCost): each round takes the cheapest quorum among
	// unsuspected members, so reads ride write quorums where the flavor
	// allows and faults force exact re-picks around the suspects instead
	// of fresh random draws.
	PickCost []time.Duration
}

// leaseHolder reports whether id runs the holder policy in this run.
func leaseHolder(r RKVRun, id cluster.NodeID) bool {
	if len(r.LeaseOn) == 0 {
		return id == 0
	}
	for _, h := range r.LeaseOn {
		if h == id {
			return true
		}
	}
	return false
}

// RKVResult reports one chaotic register run.
type RKVResult struct {
	// Completed and Failed count operations that returned ok / with an
	// error — rkv.ErrRestarted included: an operation in flight when its
	// node crashed fails at the restart. Pending counts invocations with
	// no return in the history: failed ops are "maybe" ops, so they
	// appear pending there, as do ops a node never answered.
	Completed, Failed, Pending int
	Messages, Dropped          uint64
	// Ops is the recorded history.
	Ops []history.Op
	// Epoch and Joint describe the cluster's final state: the highest
	// epoch any live node reached, and whether any live node was still on
	// a joint config when the run drained — a completed reconfiguration
	// leaves Joint false.
	Epoch uint64
	Joint bool
	// LeaseGrants and LocalVersions sum every node's lease activations
	// and locally versioned writes (crashed nodes included: the counters
	// live outside the state a restart resets).
	LeaseGrants, LocalVersions uint64
	// OneRoundReads sums every node's reads that finished at phase 1
	// because their quorum held a write quorum and agreed.
	OneRoundReads uint64
	// Err is the linearizability verdict: nil, a
	// *history.RegisterViolation, or history.ErrUndecided.
	Err error
}

// rkvClient is one node's side of the workload: the runner submits its
// ops burst at a time (one at a time on a sequential node), the next
// burst gap after the previous one's last callback.
type rkvClient struct {
	id    cluster.NodeID
	node  *rkv.Node
	ops   []rkv.Op
	next  int // ops[:next] are submitted
	open  int // submitted, callback not fired yet
	burst int
	gap   time.Duration
}

// rkvProbe lets a test watch a run from inside: boot sees the cluster
// before it runs, result every operation's outcome.
type rkvProbe struct {
	boot   func(net *cluster.Network, nodes []*rkv.Node)
	result func(rkv.Result)
}

// RunRKV drives every node through an alternating write/read workload
// while the schedule injects faults, then checks the recorded history for
// linearizability. Operations enter through rkv.Node.Submit, the path
// kvd's gateway and hqbench drive, and the runner — not the node — paces
// them across the schedule's fault window. Write values are globally
// unique ("n<node>.<index>"), which keeps the checker fast; reads use
// write-back so crashed writers cannot cause read inversions.
func RunRKV(r RKVRun) (RKVResult, error) { return runRKV(r, rkvProbe{}) }

func runRKV(r RKVRun, probe rkvProbe) (RKVResult, error) {
	if r.Initial == nil || r.Space <= 0 {
		return RKVResult{}, fmt.Errorf("nemesis: RunRKV needs an initial epoch config and its ID space")
	}
	if err := r.Initial.Validate(r.Space); err != nil {
		return RKVResult{}, err
	}
	if r.ShiftReads != 0 && (r.ShiftReads <= 0 || r.ShiftReads >= 1) {
		return RKVResult{}, fmt.Errorf("nemesis: ShiftReads %v outside (0, 1)", r.ShiftReads)
	}
	var tunePol *tuner.Policy
	if r.AutoTune != nil {
		pol := r.AutoTune.WithDefaults()
		tunePol = &pol
	}
	if r.OpsPerNode <= 0 {
		r.OpsPerNode = 6
	}
	if r.Timeout <= 0 {
		r.Timeout = 100 * time.Millisecond
	}
	if r.OpDeadline <= 0 {
		r.OpDeadline = 2 * time.Second
	}
	if r.StateLimit <= 0 {
		r.StateLimit = history.DefaultStateLimit
	}
	if r.Keys <= 0 {
		r.Keys = 1
	}
	univ := r.Space
	member := func(i int) bool {
		for _, m := range r.Initial.Members {
			if int(m) == i {
				return true
			}
		}
		return false
	}
	var diskRoot string
	if r.Disk {
		var err error
		if diskRoot, err = os.MkdirTemp("", "nemesis-wal-"); err != nil {
			return RKVResult{}, err
		}
		defer os.RemoveAll(diskRoot)
	}
	net := cluster.New(cluster.WithSeed(r.Seed))
	rec := history.NewRegister()
	var res RKVResult
	// client maps an operation to its history client. Sequential cells
	// record under the node ID; a cell where any node submits bursts gives
	// every operation its own virtual client, because ops sharing a burst
	// are concurrent.
	stride := r.OpsPerNode * max(1, r.HolderBatch)
	client := func(node cluster.NodeID, k int) int {
		if r.Window <= 1 && r.Batch <= 1 && r.HolderWindow <= 1 && r.HolderBatch <= 1 {
			return int(node)
		}
		return int(node)*stride + k
	}
	// key spreads node i's op k across the keyspace; the rotation by node
	// makes every key contested across nodes, not partitioned per node.
	key := func(i, k int) string {
		if r.Keys <= 1 {
			return ""
		}
		return fmt.Sprintf("k%d", (i+k)%r.Keys)
	}
	// The mix shift: second-half slots (k >= shiftAt) are reads except one
	// write every writeEvery slots, staggered by node so the writes spread
	// across keys and time instead of landing in lockstep.
	shiftAt, writeEvery := r.OpsPerNode, 0
	if r.ShiftReads > 0 {
		shiftAt = r.OpsPerNode / 2
		writeEvery = int(1/(1-r.ShiftReads) + 0.5)
		if writeEvery < 2 {
			writeEvery = 2
		}
	}
	nodes := make([]*rkv.Node, univ)
	stores := make([]*epoch.Store, univ)
	var clients []*rkvClient
	for i := 0; i < univ; i++ {
		id := cluster.NodeID(i)
		holder := r.Lease != nil && leaseHolder(r, id)
		var ops []rkv.Op
		if member(i) {
			ops = make([]rkv.Op, r.OpsPerNode)
			if holder && r.HolderBatch > 0 {
				ops = make([]rkv.Op, stride)
			}
			for k := range ops {
				write := k%2 == 0
				if k >= shiftAt && writeEvery > 0 {
					write = (i+k)%writeEvery == 0
				}
				if write {
					ops[k] = rkv.Op{Kind: rkv.OpWrite, Key: key(i, k), Value: fmt.Sprintf("n%d.%d", i, k)}
				} else {
					ops[k] = rkv.Op{Kind: rkv.OpRead, Key: key(i, k)}
				}
			}
		}
		epochs, err := epoch.NewStore(r.Space, *r.Initial)
		if err != nil {
			return RKVResult{}, err
		}
		stores[i] = epochs
		cfg := rkv.Config{
			Epochs:        epochs,
			Timeout:       r.Timeout,
			OpDeadline:    r.OpDeadline,
			OpGap:         -1,
			Window:        r.Window,
			Batch:         r.Batch,
			Shards:        r.Shards,
			ReadWriteback: true,
		}
		if r.PickCost != nil {
			cfg.PickCost, cfg.PickSamples = r.PickCost, 2
		}
		if r.Disk {
			cfg.Storage = "disk"
			cfg.DataDir = filepath.Join(diskRoot, fmt.Sprintf("n%02d", i))
			cfg.WALNoSync = true
			cfg.SnapshotEvery = 8
		}
		if holder {
			lc := *r.Lease
			cfg.Lease = &lc
			if r.HolderWindow > 0 {
				cfg.Window = r.HolderWindow
			}
			if r.HolderBatch > 0 {
				cfg.Batch = r.HolderBatch
			}
		}
		if i == 0 && tunePol != nil {
			cfg.AutoTune = tunePol
		}
		node, err := rkv.NewNode(id, cfg)
		if err != nil {
			return RKVResult{}, err
		}
		nodes[i] = node
		if err := net.AddNode(id, node); err != nil {
			return RKVResult{}, err
		}
		node.SetWake(func() { net.StartTimer(id, 0, node.StartToken()) })
		if len(ops) > 0 {
			// Pace the node's bursts evenly across the fault window, so
			// operations are in flight when faults land.
			c := &rkvClient{id: id, node: node, ops: ops, burst: max(1, cfg.Window) * max(1, cfg.Batch)}
			c.gap = window(r.Schedule) / time.Duration((len(ops)+c.burst-1)/c.burst)
			clients = append(clients, c)
		}
		if i == 0 && tunePol != nil {
			// The runner starts nodes by token, not rkv.Node.Start: arm the
			// tune loop the same way. Crash restarts re-arm it themselves
			// (rkv's Restarted hook).
			if err := net.StartTimer(id, tunePol.Interval, rkv.TuneToken()); err != nil {
				return RKVResult{}, err
			}
		}
		if cfg.Lease != nil {
			// Same start-by-token treatment for the lease policy loop.
			if err := net.StartTimer(id, cfg.Lease.WithDefaults().Check, rkv.LeaseToken()); err != nil {
				return RKVResult{}, err
			}
		}
	}
	// submit hands c its next burst. A history op is invoked at its Submit
	// call — no later than its launch. Nothing is submitted into a crashed
	// node: the runner looks again a gap later.
	var submit func(c *rkvClient)
	submit = func(c *rkvClient) {
		if net.Crashed(c.id) {
			net.Schedule(net.Now()+c.gap, func() { submit(c) })
			return
		}
		for end := min(c.next+c.burst, len(c.ops)); c.next < end; c.next++ {
			op, cl := c.ops[c.next], client(c.id, c.next)
			kind, value := history.KindWrite, op.Value
			if op.Kind == rkv.OpRead {
				kind, value = history.KindRead, ""
			}
			rec.InvokeKeyed(cl, kind, op.Key, value, net.Now())
			c.open++
			c.node.Submit(op, func(rr rkv.Result) {
				if probe.result != nil {
					probe.result(rr)
				}
				if rr.Err != nil {
					res.Failed++
					rec.Fail(cl, rr.At)
				} else {
					res.Completed++
					order := rr.Version.Counter<<8 | uint64(rr.Version.Writer)&0xff
					rec.Complete(cl, rr.Value, order, rr.At)
				}
				if c.open--; c.open == 0 && c.next < len(c.ops) {
					net.Schedule(net.Now()+c.gap, func() { submit(c) })
				}
			})
		}
	}
	for _, c := range clients {
		// Stagger starts across one gap so invocations are spread evenly
		// over the fault window rather than arriving in lockstep.
		net.Schedule(c.gap*time.Duration(c.id)/time.Duration(univ), func() { submit(c) })
	}
	var reconfigs []cluster.NodeID
	if tunePol != nil {
		// Tuner-initiated reconfigurations have no schedule action: treat
		// node 0 as a standing coordinator so drain waits for any swap it
		// started to settle.
		reconfigs = append(reconfigs, 0)
	}
	hooks := Hooks{OnReconfig: func(rc Reconfig, at time.Duration) {
		reconfigs = append(reconfigs, rc.Coordinator)
		// Kick the coordinator with the reconfiguration token; the
		// protocol spreads the config from there.
		_ = net.StartTimer(rc.Coordinator, 0, rkv.ReconfigToken(rc.Target))
	}}
	if err := ApplyHooks(net, r.Schedule, hooks); err != nil {
		return RKVResult{}, err
	}
	if probe.boot != nil {
		probe.boot(net, nodes)
	}
	net.Run(r.Schedule.Horizon)
	drain(net, func() bool {
		for _, c := range clients {
			if !net.Crashed(c.id) && (c.next < len(c.ops) || !c.node.Done()) {
				return false
			}
		}
		// The run is not settled while a live coordinator is still mid
		// reconfiguration.
		for _, c := range reconfigs {
			if !net.Crashed(c) && nodes[c].Reconfiguring() {
				return false
			}
		}
		return true
	}, drainBudget)

	for i, st := range stores {
		if net.Crashed(cluster.NodeID(i)) {
			continue
		}
		snap := st.Snapshot()
		if snap.Epoch > res.Epoch {
			res.Epoch = snap.Epoch
		}
		if snap.Joint() {
			res.Joint = true
		}
	}
	for _, node := range nodes {
		ls := node.LeaseStats()
		res.LeaseGrants += ls.Grants
		res.LocalVersions += ls.LocalVersions
		res.OneRoundReads += node.OneRoundReads()
	}
	res.Ops = rec.Ops()
	for _, op := range res.Ops {
		if !op.Completed {
			res.Pending++
		}
	}
	res.Messages, res.Dropped = net.Messages(), net.Dropped()
	// Per-key checking: with Keys <= 1 every op targets key "" and this is
	// exactly the single-register check.
	res.Err = history.CheckRegisterPerKeyLimited(res.Ops, r.StateLimit)
	return res, nil
}

// MutexRun parameterizes one chaotic distributed-lock run.
type MutexRun struct {
	System   quorum.System
	Seed     int64
	Schedule Schedule
	// Count is each node's number of critical sections (default 2).
	Count int
	// RetryTimeout is the per-attempt patience (default 100ms); the
	// node's grantee-probe and reclamation timers scale from it.
	RetryTimeout time.Duration
	// AcquireDeadline bounds each acquisition across retries (default 3s).
	AcquireDeadline time.Duration
}

// MutexResult reports one chaotic lock run.
type MutexResult struct {
	// Entries counts critical sections entered; Failures counts
	// acquisitions abandoned at their deadline.
	Entries, Failures int
	Messages, Dropped uint64
	// Intervals is the recorded hold history (crash-truncated).
	Intervals []history.HoldInterval
	// Violations lists overlapping holds — mutual-exclusion breaches.
	Violations []history.MutexViolation
}

// RunMutex drives every node through Count critical sections while the
// schedule injects faults, then checks the recorded hold intervals for
// overlap. Crashes truncate the victim's hold at the crash instant, so a
// crashed holder is not blamed for the reclaimed grant that follows.
func RunMutex(r MutexRun) (MutexResult, error) {
	if r.System == nil {
		return MutexResult{}, fmt.Errorf("nemesis: RunMutex needs a quorum system")
	}
	if r.Count <= 0 {
		r.Count = 2
	}
	if r.RetryTimeout <= 0 {
		r.RetryTimeout = 100 * time.Millisecond
	}
	if r.AcquireDeadline <= 0 {
		r.AcquireDeadline = 3 * time.Second
	}
	univ := r.System.Universe()
	net := cluster.New(cluster.WithSeed(r.Seed))
	rec := history.NewMutex()
	var res MutexResult
	think := window(r.Schedule) / time.Duration(r.Count)
	nodes := make([]*dmutex.Node, univ)
	for i := 0; i < univ; i++ {
		id := cluster.NodeID(i)
		node, err := dmutex.NewNode(id, dmutex.Config{
			System:          r.System,
			RetryTimeout:    r.RetryTimeout,
			AcquireDeadline: r.AcquireDeadline,
			Workload:        dmutex.Workload{Count: r.Count, Hold: 2 * time.Millisecond, Think: think},
			OnAcquire: func(id cluster.NodeID, at time.Duration) {
				rec.Acquire(int(id), at)
			},
			OnRelease: func(id cluster.NodeID, at time.Duration) {
				rec.Release(int(id), at)
			},
			OnFail: func(id cluster.NodeID, at time.Duration, err error) {
				res.Failures++
			},
		})
		if err != nil {
			return MutexResult{}, err
		}
		nodes[i] = node
		if err := net.AddNode(id, node); err != nil {
			return MutexResult{}, err
		}
		// Stagger starts across one think period so acquisitions spread
		// over the fault window instead of arriving in lockstep.
		if err := net.StartTimer(id, think*time.Duration(i)/time.Duration(univ), node.StartToken()); err != nil {
			return MutexResult{}, err
		}
	}
	if err := Apply(net, r.Schedule, func(id cluster.NodeID, at time.Duration) {
		rec.Crash(int(id), at)
	}); err != nil {
		return MutexResult{}, err
	}
	net.Run(r.Schedule.Horizon)
	drain(net, func() bool {
		for i, node := range nodes {
			if net.Crashed(cluster.NodeID(i)) {
				continue
			}
			if !node.Done() {
				return false
			}
		}
		return true
	}, drainBudget)

	for _, node := range nodes {
		res.Entries += node.Entries
	}
	res.Messages, res.Dropped = net.Messages(), net.Dropped()
	res.Intervals = rec.Intervals(net.Now())
	res.Violations = rec.Check(net.Now())
	return res, nil
}
