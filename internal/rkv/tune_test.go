package rkv

import (
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/tuner"
)

func majority16() epoch.Params {
	return epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 16)}
}

// TestAutoTuneSwapsUnderReadHeavyMix is the tentpole end to end in the
// deterministic simulator: a 16-node cluster starts on symmetric majority
// quorums, every node runs a 95%-read workload, and the auto-tuning node
// must measure the mix, decide a structurally asymmetric configuration
// wins, and drive the epoch reconfiguration — with zero operation errors
// across the transition.
func TestAutoTuneSwapsUnderReadHeavyMix(t *testing.T) {
	ops := make(map[cluster.NodeID][]Op)
	for i := 0; i < 16; i++ {
		var w []Op
		w = append(w, Op{Kind: OpWrite, Key: "k", Value: "v0"})
		for j := 0; j < 79; j++ {
			w = append(w, Op{Kind: OpRead, Key: "k"})
		}
		ops[cluster.NodeID(i)] = w
	}
	h := &epochHarness{net: cluster.New(cluster.WithSeed(11), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 16; i++ {
		id := cluster.NodeID(i)
		st, err := epoch.NewStore(16, majority16())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Epochs: st}
		if i == 0 {
			cfg.AutoTune = &tuner.Policy{
				Interval: 50 * time.Millisecond,
				HoldFor:  2,
				MinOps:   16,
			}
		}
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
	submitAll(t, h.net, h.nodes, 4*time.Millisecond, ops, &h.results)
	h.net.Run(30 * time.Second)
	for i, n := range h.nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish", i)
		}
	}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("node %d %v failed across auto-tune swap: %v", r.Node, r.Kind, r.Err)
		}
	}
	// The swap happened: joint (epoch 2) then final (epoch 3), and the
	// tuner's winner is one of the structurally asymmetric flavors.
	cfg := h.stores[0].Snapshot()
	if cfg.Epoch < 3 {
		t.Fatalf("auto-tune never completed a swap: epoch %d, config %v", cfg.Epoch, cfg.Cur)
	}
	if cfg.Joint() {
		t.Fatalf("cluster left joint at epoch %d", cfg.Epoch)
	}
	switch cfg.Cur.Flavor {
	case epoch.FlavorHGrid, epoch.FlavorHTGrid, epoch.FlavorHMaj:
	default:
		t.Fatalf("read-heavy auto-tune landed on %v, want a structural flavor", cfg.Cur)
	}
	// The profiler saw the mix it tuned on.
	wl := h.nodes[0].Workload(h.net.Now())
	if wl.Ops() > 0 && wl.ReadFrac() < 0.5 {
		t.Fatalf("profiler read fraction %.2f under a read-heavy workload", wl.ReadFrac())
	}
}

// TestAutoTuneHoldsOnBalancedMix: under a 50/50 mix no candidate clears
// the availability floor by the default margin, so the auto-tuner must
// leave the cluster exactly where it started.
func TestAutoTuneHoldsOnBalancedMix(t *testing.T) {
	ops := make(map[cluster.NodeID][]Op)
	for i := 0; i < 16; i++ {
		var w []Op
		for j := 0; j < 40; j++ {
			w = append(w, Op{Kind: OpWrite, Key: "k", Value: "v"}, Op{Kind: OpRead, Key: "k"})
		}
		ops[cluster.NodeID(i)] = w
	}
	h := &epochHarness{net: cluster.New(cluster.WithSeed(12), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 16; i++ {
		id := cluster.NodeID(i)
		st, err := epoch.NewStore(16, majority16())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Epochs: st}
		if i == 0 {
			cfg.AutoTune = &tuner.Policy{Interval: 50 * time.Millisecond, HoldFor: 2, MinOps: 16}
		}
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
	submitAll(t, h.net, h.nodes, 4*time.Millisecond, ops, &h.results)
	h.net.Run(30 * time.Second)
	if cfg := h.stores[0].Snapshot(); cfg.Epoch != 1 {
		t.Fatalf("balanced mix must not reconfigure: epoch %d, config %v", cfg.Epoch, cfg.Cur)
	}
}

// TestPickCacheTunerSwap: a tuner-triggered epoch swap must invalidate
// BOTH pick caches — a cached majority-16 quorum (9 members) is not a
// quorum of the h-grid config the tuner lands on, in either flavor.
func TestPickCacheTunerSwap(t *testing.T) {
	st, err := epoch.NewStore(16, majority16())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(0, Config{Epochs: st})
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{rng: rand.New(rand.NewSource(3))}
	a, b := n.getOp(), n.getOp()
	for _, read := range []bool{true, false} {
		if err := n.pickQuorum(env, a, read); err != nil {
			t.Fatal(err)
		}
		if err := n.pickQuorum(env, b, read); err != nil {
			t.Fatal(err)
		}
		if !a.quorum.Equal(b.quorum) {
			t.Fatalf("read=%v: cache miss on unchanged view", read)
		}
		if got := a.quorum.Count(); got != 9 {
			t.Fatalf("read=%v: majority-16 quorum size %d, want 9", read, got)
		}
	}
	hits, misses := n.PickCacheStats()
	if hits != 2 || misses != 2 {
		t.Fatalf("pick cache stats hits=%d misses=%d, want 2/2", hits, misses)
	}
	// The swap the tuner drives under a read-heavy mix: majority → h-grid.
	if ok, err := st.Install(epoch.Config{Epoch: 2, Cur: hgrid44All()}); !ok || err != nil {
		t.Fatalf("install: ok=%v err=%v", ok, err)
	}
	for _, read := range []bool{true, false} {
		if err := n.pickQuorum(env, a, read); err != nil {
			t.Fatal(err)
		}
		if got := a.quorum.Count(); got != 4 {
			t.Fatalf("read=%v: post-swap quorum size %d, want 4 (h-grid 4x4)", read, got)
		}
	}
	if _, misses := n.PickCacheStats(); misses != 4 {
		t.Fatalf("post-swap picks must re-draw: misses=%d, want 4", misses)
	}
}

// TestWorkloadClientFetch: the msgWorkload exchange end to end — a
// non-replica client fetches a node's profiler snapshot and current
// config over the simulated network.
func TestWorkloadClientFetch(t *testing.T) {
	ops := map[cluster.NodeID][]Op{
		0: {
			{Kind: OpWrite, Key: "k", Value: "v"},
			{Kind: OpRead, Key: "k"},
			{Kind: OpRead, Key: "k"},
			{Kind: OpRead, Key: "k"},
		},
	}
	h := newEpochHarness(t, 21, 9, majority9(), ops)
	var got tuner.Workload
	var gotCfg epoch.Config
	fetched := false
	wc := NewWorkloadClient(0, 200*time.Millisecond, func(wl tuner.Workload, cfg epoch.Config, haveCfg bool) {
		got, gotCfg, fetched = wl, cfg, haveCfg
	})
	if err := h.net.AddNode(100, wc); err != nil {
		t.Fatal(err)
	}
	// Fetch after the little workload has run.
	if err := h.net.StartTimer(100, 300*time.Millisecond, wc.StartToken()); err != nil {
		t.Fatal(err)
	}
	h.net.Run(2 * time.Second)
	if !fetched {
		t.Fatal("workload client got no reply")
	}
	if !gotCfg.Cur.Equal(majority9()) {
		t.Fatalf("fetched config %v, want majority over 9", gotCfg.Cur)
	}
	if got.Ops() != 4 || got.Reads != 3 {
		t.Fatalf("fetched workload %+v, want 3 reads + 1 write", got)
	}
}
