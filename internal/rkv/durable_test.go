package rkv

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/wal"
)

// maj3 is the three-replica threshold config the disk tests run.
func maj3(r, w int) epoch.Params {
	return epoch.Params{Flavor: epoch.FlavorMajority, R: r, W: w, Members: epoch.MemberRange(0, 3)}
}

// diskHarness wires a 3-replica majority cluster with the disk backend:
// R=W=3 puts every write on every node, so recovery assertions are
// deterministic regardless of quorum picks.
type diskHarness struct {
	net     *cluster.Network
	nodes   []*Node
	results []Result
	dirs    []string
}

func newDiskHarness(t *testing.T, seed int64, base Config, ops map[cluster.NodeID][]Op) *diskHarness {
	t.Helper()
	root := t.TempDir()
	h := &diskHarness{net: cluster.New(cluster.WithSeed(seed), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 3; i++ {
		id := cluster.NodeID(i)
		cfg := base
		cfg.Epochs = testEpochs(t, 3, maj3(3, 3))
		cfg.Storage = "disk"
		cfg.DataDir = filepath.Join(root, fmt.Sprintf("n%d", i))
		n, err := NewNode(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.net.AddNode(id, n); err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
		h.dirs = append(h.dirs, cfg.DataDir)
	}
	submitAll(t, h.net, h.nodes, 0, ops, &h.results)
	return h
}

// submit runs ops on node id in sequence (submitSeq).
func (h *diskHarness) submit(id cluster.NodeID, ops ...Op) {
	submitSeq(h.net, h.nodes[id], 0, &h.results, ops...)
}

func (h *diskHarness) run(t *testing.T, until time.Duration) {
	t.Helper()
	h.net.Run(until)
	for _, n := range h.nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish its ops", n.id)
		}
	}
}

// TestDiskCrashRecovery: a replica crash-restarted after a workload
// rebuilds its store from the WAL instead of coming back empty.
func TestDiskCrashRecovery(t *testing.T) {
	h := newDiskHarness(t, 11, Config{}, map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "v1"}, {Kind: OpWrite, Value: "v2"}},
	})
	h.run(t, 30*time.Second)

	// Every node holds v2 (W = 3). Crash node 2 and restart it: the
	// memory image dies; the value must come back from disk.
	h.net.Crash(2)
	h.net.Restart(2)
	if val, ver := h.nodes[2].Value(); val != "v2" || ver == (Version{}) {
		t.Fatalf("recovered value = %q (%+v), want v2", val, ver)
	}
	if st := h.nodes[2].WALStats(); st.Replayed == 0 {
		t.Fatalf("restart did not replay the log: %+v", st)
	}

	// The restarted node still serves reads through the protocol.
	h.submit(2, Op{Kind: OpRead})
	h.run(t, 60*time.Second)
	last := h.results[len(h.results)-1]
	if last.Kind != OpRead || last.Value != "v2" {
		t.Fatalf("post-restart read = %q, want v2", last.Value)
	}
}

// TestDiskGroupCommitPerBatch: with Batch=8 an eight-op round reaches a
// replica as one msgWriteBatch whose keys spread over the 16 map shards,
// and must cost one commit round with one fsync — FileSyncs == SyncRounds
// whatever the shard spread, the end-to-end form of the WAL-level
// group-commit guarantee.
func TestDiskGroupCommitPerBatch(t *testing.T) {
	var ops []Op
	shards := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		shards[hashKey(key)&(DefaultShards-1)] = true
		ops = append(ops, Op{Kind: OpBlindWrite, Key: key, Value: "v"})
	}
	if len(shards) < 4 {
		t.Fatalf("test keys cover only %d map shards", len(shards))
	}
	h := newDiskHarness(t, 12, Config{Batch: 8, OpGap: -1}, nil)
	for _, op := range ops { // queued together: one batch
		h.nodes[0].Submit(op, func(r Result) { h.results = append(h.results, r) })
	}
	h.run(t, 30*time.Second)

	// Nodes 1 and 2 are pure replicas (no client, so no lease commits):
	// exactly the batch's records, exactly one sync round, one fsync.
	for _, id := range []int{1, 2} {
		st := h.nodes[id].WALStats()
		if st.Appends != 8 {
			t.Errorf("node %d: Appends = %d, want 8", id, st.Appends)
		}
		if st.SyncRounds != 1 || st.FileSyncs != 1 {
			t.Errorf("node %d: SyncRounds=%d FileSyncs=%d, want 1/1 — batch must group-commit", id, st.SyncRounds, st.FileSyncs)
		}
	}
	// The client node additionally committed its clock lease.
	if st := h.nodes[0].WALStats(); st.SyncRounds != 2 || st.FileSyncs != 2 {
		t.Errorf("client node: SyncRounds=%d FileSyncs=%d, want 2/2 (lease + batch)", st.SyncRounds, st.FileSyncs)
	}
}

// ackEnv is a detachable Env recording what a replica sends: the shape
// of the live transport's per-connection env, minus the sockets.
type ackEnv struct {
	mu    sync.Mutex
	acks  []msgWriteAck
	reads []msgReadBatchReply
}

func (e *ackEnv) ID() cluster.NodeID            { return 1 }
func (e *ackEnv) Now() time.Duration            { return 0 }
func (e *ackEnv) After(time.Duration, any)      {}
func (e *ackEnv) Rand() *rand.Rand              { return nil }
func (e *ackEnv) Detach() (cluster.Env, func()) { return e, func() {} }
func (e *ackEnv) Send(to cluster.NodeID, msg any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch m := msg.(type) {
	case msgWriteAck:
		e.acks = append(e.acks, m)
	case msgReadBatchReply:
		e.reads = append(e.reads, m)
	}
}

func (e *ackEnv) seqs() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []uint64
	for _, a := range e.acks {
		out = append(out, a.Seq)
	}
	return out
}

// TestDiskAcksRideCoveringRound: eight write batches delivered back to
// back on one connection while the log's first fsync is stuck. Every
// FastDeliver returns at once (the delivering goroutine never sleeps in
// fsync), no ack leaves before an fsync covering its records returns,
// and the eight batches finish in two rounds, not eight.
func TestDiskAcksRideCoveringRound(t *testing.T) {
	n, err := NewNode(1, Config{Epochs: testEpochs(t, 3, maj3(2, 2)), Storage: "disk", DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}, 8), make(chan struct{})
	n.wal.SetHook(func(point string) error {
		if point == "sync" {
			entered <- struct{}{}
			<-gate
		}
		return nil
	})
	env := &ackEnv{}
	deliver := func(seq uint64) {
		m := msgWriteBatch{Epoch: 1, Seq: seq}
		for k := 0; k < 8; k++ {
			m.Keys = append(m.Keys, fmt.Sprintf("key-%d", k))
			m.Vers = append(m.Vers, Version{Counter: seq, Writer: 0})
			m.Vals = append(m.Vals, fmt.Sprintf("v%d", seq))
		}
		if !n.FastDeliver(env, 0, m) {
			t.Fatalf("batch %d not served on the fast path", seq)
		}
	}
	deliver(1)
	<-entered // round 1 sits in fsync holding batch 1 only
	for seq := uint64(2); seq <= 8; seq++ {
		deliver(seq)
	}
	if got := env.seqs(); len(got) != 0 {
		t.Fatalf("acks %v sent before any fsync returned", got)
	}
	gate <- struct{}{} // round 1's fsync returns
	<-entered          // round 2 sits in fsync holding batches 2..8
	if got := env.seqs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("acks after round 1 = %v, want exactly batch 1", got)
	}
	gate <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for len(env.seqs()) < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("acks = %v, want all eight", env.seqs())
		}
		time.Sleep(time.Millisecond)
	}
	if st := n.WALStats(); st.Appends != 64 || st.SyncRounds != 2 || st.FileSyncs != 2 {
		t.Fatalf("8 batches took %+v, want 64 appends in 2 rounds with 2 fsyncs", st)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskReadReplySaysUnsynced: the live path's window between a write
// installed in the store and the fsync its ack waits for. A version read
// served inside it reports the new version — reads never wait behind a
// flush — and says so (Unsynced), because a crash now would lose it; once
// the fsync has returned and the ack is out, the same read does not.
func TestDiskReadReplySaysUnsynced(t *testing.T) {
	n, err := NewNode(1, Config{Epochs: testEpochs(t, 3, maj3(2, 2)), Storage: "disk", DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	n.wal.SetHook(func(point string) error {
		if point == "sync" {
			entered <- struct{}{}
			<-gate
		}
		return nil
	})
	env := &ackEnv{}
	read := func() msgReadBatchReply {
		n.FastDeliver(env, 0, msgReadBatch{Epoch: 1, Seq: 9, Keys: []string{"k"}})
		env.mu.Lock()
		defer env.mu.Unlock()
		return env.reads[len(env.reads)-1]
	}
	if r := read(); r.Unsynced || r.Vers[0] != (Version{}) {
		t.Fatalf("idle replica answered %+v, want the zero version from a synced log", r)
	}
	ver := Version{Counter: 1, Writer: 0}
	n.FastDeliver(env, 0, msgWriteBatch{Epoch: 1, Seq: 1, Keys: []string{"k"}, Vers: []Version{ver}, Vals: []string{"v"}})
	<-entered // the write's round sits in fsync: installed, not durable, not acked
	if r := read(); !r.Unsynced || r.Vers[0] != ver || len(env.seqs()) != 0 {
		t.Fatalf("mid-fsync read answered %+v with acks %v; want the new version, flagged unsynced, no ack yet", r, env.seqs())
	}
	gate <- struct{}{}
	for deadline := time.Now().Add(10 * time.Second); len(env.seqs()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("write never acknowledged")
		}
	}
	if r := read(); r.Unsynced || r.Vers[0] != ver {
		t.Fatalf("read after the ack answered %+v, want the version from a synced log", r)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskLegacyLayoutRefused: a data directory still in the per-shard
// sNN/ layout fails NewNode with the WAL's typed error.
func TestDiskLegacyLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "s00"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(0, Config{Epochs: testEpochs(t, 3, maj3(2, 2)), Storage: "disk", DataDir: dir}); !errors.Is(err, wal.ErrLegacyLayout) {
		t.Fatalf("NewNode on a legacy directory = %v, want wal.ErrLegacyLayout", err)
	}
}

// TestDiskClockLeaseSurvivesRestart: a restarted writer resumes its
// clock at the durable lease bound, so post-crash stamps can never
// collide with pre-crash ones that may survive on remote replicas.
func TestDiskClockLeaseSurvivesRestart(t *testing.T) {
	h := newDiskHarness(t, 13, Config{}, map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "before"}},
	})
	h.run(t, 30*time.Second)
	preClock := h.nodes[0].clock.Load()
	preVer := h.results[0].Version

	h.net.Crash(0)
	h.net.Restart(0)
	postClock := h.nodes[0].clock.Load()
	if postClock < preClock {
		t.Fatalf("clock went backwards across restart: %d -> %d", preClock, postClock)
	}
	if postClock < preVer.Counter+1 {
		t.Fatalf("replayed clock %d does not cover stamped counter %d", postClock, preVer.Counter)
	}
	if h.nodes[0].walLease < postClock {
		t.Fatalf("lease %d below clock %d after replay", h.nodes[0].walLease, postClock)
	}

	h.submit(0, Op{Kind: OpWrite, Value: "after"})
	h.run(t, 60*time.Second)
	post := h.results[len(h.results)-1]
	if post.Version.Counter <= preVer.Counter {
		t.Fatalf("post-restart stamp %d not above pre-crash stamp %d", post.Version.Counter, preVer.Counter)
	}
}

// TestDiskCleanShutdownReopen: Close writes a final checkpoint plus the
// marker; a fresh NewNode on the same directory recovers the state from
// it and reports the clean start.
func TestDiskCleanShutdownReopen(t *testing.T) {
	h := newDiskHarness(t, 14, Config{}, map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "persisted"}},
	})
	h.run(t, 30*time.Second)
	for _, n := range h.nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("node %d close: %v", n.id, err)
		}
	}

	reborn, err := NewNode(1, Config{Epochs: testEpochs(t, 3, maj3(3, 3)), Storage: "disk", DataDir: h.dirs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if !reborn.CleanStart() {
		t.Fatal("reopen after Close did not see the clean-shutdown marker")
	}
	if val, _ := reborn.Value(); val != "persisted" {
		t.Fatalf("value after clean reopen = %q, want persisted", val)
	}
}

// TestDiskSnapshotCompaction: a hot key's log compacts into checkpoints
// and the state still recovers.
func TestDiskSnapshotCompaction(t *testing.T) {
	var ops []Op
	for i := 0; i < 12; i++ {
		ops = append(ops, Op{Kind: OpBlindWrite, Value: fmt.Sprintf("v%d", i)})
	}
	h := newDiskHarness(t, 15, Config{SnapshotEvery: 4}, map[cluster.NodeID][]Op{0: ops})
	h.run(t, 60*time.Second)
	if st := h.nodes[1].WALStats(); st.Snapshots == 0 {
		t.Fatalf("no snapshots after %d writes with SnapshotEvery=4: %+v", len(ops), st)
	}
	h.net.Crash(1)
	h.net.Restart(1)
	if val, _ := h.nodes[1].Value(); val != "v11" {
		t.Fatalf("recovered value = %q, want v11", val)
	}
}

// TestStorageConfigValidation: bad storage configs fail NewNode.
func TestStorageConfigValidation(t *testing.T) {
	store := testEpochs(t, 3, maj3(2, 2))
	if _, err := NewNode(0, Config{Epochs: store, Storage: "disk"}); err == nil {
		t.Error("disk storage without DataDir accepted")
	}
	if _, err := NewNode(0, Config{Epochs: store, Storage: "flash"}); err == nil {
		t.Error("unknown storage backend accepted")
	}
	if _, err := NewNode(0, Config{Epochs: store, Storage: "memory"}); err != nil {
		t.Errorf("memory storage rejected: %v", err)
	}
}
