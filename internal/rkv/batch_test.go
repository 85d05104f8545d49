package rkv

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/quorum"
)

// TestBatchedMultiKeyReadAfterWrite: a batch of writes to distinct keys
// queued ahead of a batch of reads; each read observes its own key's write
// (batches are sequential at Window=1, so the reads start after the
// writes' quorum round completed).
func TestBatchedMultiKeyReadAfterWrite(t *testing.T) {
	ops := []Op{
		{Kind: OpWrite, Key: "a", Value: "va"},
		{Kind: OpWrite, Key: "b", Value: "vb"},
		{Kind: OpBlindWrite, Key: "c", Value: "vc"},
		{Kind: OpRead, Key: "a"},
		{Kind: OpRead, Key: "b"},
		{Kind: OpRead, Key: "c"},
	}
	base := Config{Batch: 3, OpGap: -1}
	h := newHarnessCfg(t, 61, base, nil, nil)
	h.burst(2, ops...)
	h.run(t, time.Minute)
	if len(h.results) != len(ops) {
		t.Fatalf("results %d, want %d", len(h.results), len(ops))
	}
	want := map[string]string{"a": "va", "b": "vb", "c": "vc"}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("%v %q failed: %v", r.Kind, r.Key, r.Err)
		}
		if r.Kind == OpRead && r.Value != want[r.Key] {
			t.Fatalf("read %q returned %q, want %q", r.Key, r.Value, want[r.Key])
		}
	}
	// The keys live in independent registers on every replica.
	for _, key := range []string{"a", "b", "c"} {
		holders := 0
		for _, n := range h.nodes {
			if v, _ := n.ValueKey(key); v == want[key] {
				holders++
			}
		}
		if holders < 4 {
			t.Fatalf("key %q held by %d replicas, want a full line", key, holders)
		}
	}
}

// TestBatchAmortizesMessages: K ops sharing one batch round cost two
// phases total, not per op — the message count must collapse accordingly.
func TestBatchAmortizesMessages(t *testing.T) {
	const nOps = 32
	run := func(batch int) uint64 {
		ops := make([]Op, nOps)
		for i := range ops {
			ops[i] = Op{Kind: OpWrite, Key: fmt.Sprintf("k%d", i), Value: fmt.Sprintf("v%d", i)}
		}
		base := Config{Batch: batch, OpGap: -1}
		h := newHarnessCfg(t, 62, base, nil, nil)
		h.burst(0, ops...)
		h.run(t, 2*time.Minute)
		if len(h.results) != nOps {
			t.Fatalf("batch=%d: results %d", batch, len(h.results))
		}
		return h.net.Messages()
	}
	single, batched := run(1), run(8)
	// 8 ops per round: 4x fewer rounds is a conservative floor (retries and
	// jitter add noise; the ideal is 8x).
	if batched*4 > single {
		t.Fatalf("batch=8 used %d messages vs %d at batch=1; expected ≥4x amortization", batched, single)
	}
}

// TestBatchWindowCompose: windows of batches — Window concurrent rounds,
// each carrying Batch ops. Every op completes exactly once and writes land.
func TestBatchWindowCompose(t *testing.T) {
	const nOps = 32
	ops := make([]Op, nOps)
	for i := range ops {
		if i%4 == 3 {
			ops[i] = Op{Kind: OpRead, Key: fmt.Sprintf("k%d", i%8)}
		} else {
			ops[i] = Op{Kind: OpWrite, Key: fmt.Sprintf("k%d", i%8), Value: fmt.Sprintf("w%d", i)}
		}
	}
	base := Config{Window: 4, Batch: 4, OpGap: -1}
	h := newHarnessCfg(t, 63, base, nil, nil)
	got := h.burst(5, ops...)
	h.run(t, 2*time.Minute)
	if len(h.results) != nOps {
		t.Fatalf("results %d, want %d", len(h.results), nOps)
	}
	for i, r := range got {
		if r == nil {
			t.Fatalf("op %d never completed", i)
		}
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
}

// TestBatchUnderCrashes: batched rounds retry around crashed replicas like
// single ops do.
func TestBatchUnderCrashes(t *testing.T) {
	const nOps = 16
	ops := make([]Op, nOps)
	for i := range ops {
		ops[i] = Op{Kind: OpWrite, Key: fmt.Sprintf("k%d", i%4), Value: fmt.Sprintf("c%d", i)}
	}
	base := Config{Batch: 4, OpGap: -1, Timeout: 100 * time.Millisecond}
	h := newHarnessCfg(t, 64, base, nil, []cluster.NodeID{2, 7})
	h.burst(0, ops...)
	h.net.Run(2 * time.Minute)
	if !h.nodes[0].Done() || len(h.results) != nOps {
		t.Fatalf("batched client did not finish under crashes: %d of %d results", len(h.results), nOps)
	}
	for i, r := range h.results {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
}

// TestBatchFailureReportsEverySubOp: when a batch round dies at its
// deadline, every sub-operation gets its own Result carrying the typed
// error — none may be silently lost.
func TestBatchFailureReportsEverySubOp(t *testing.T) {
	base := Config{Batch: 3, OpGap: -1, Timeout: 100 * time.Millisecond, OpDeadline: 3 * time.Second}
	h := newHarnessCfg(t, 65, base, nil, nil)
	// Cut column 0 off: no full-line exists on the majority side, so a
	// batch of writes must fail with ErrNoQuorum.
	col0 := []cluster.NodeID{0, 4, 8, 12}
	rest := []cluster.NodeID{1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15}
	if err := h.net.Partition(col0, rest); err != nil {
		t.Fatal(err)
	}
	h.burst(5,
		Op{Kind: OpWrite, Key: "x", Value: "1"},
		Op{Kind: OpWrite, Key: "y", Value: "2"},
		Op{Kind: OpWrite, Key: "z", Value: "3"},
	)
	h.net.Run(30 * time.Second)
	if len(h.results) != 3 {
		t.Fatalf("results %d, want one per sub-op", len(h.results))
	}
	for _, r := range h.results {
		if !errors.Is(r.Err, quorum.ErrNoQuorum) {
			t.Fatalf("sub-op %q returned %v, want ErrNoQuorum", r.Key, r.Err)
		}
	}
}

// TestShardedMapConcurrency: concurrent applies and gets across goroutines
// must be race-free (run under -race) and converge to the per-key maximum
// version regardless of interleaving — while the shards' tables grow
// several times over and a dumper walks them.
func TestShardedMapConcurrency(t *testing.T) {
	const (
		workers = 8
		keys    = 1024
		rounds  = 1000
	)
	s := newShardedMap(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	dumped := make(chan struct{})
	go func() {
		defer close(dumped)
		for {
			select {
			case <-stop:
				return
			default:
				s.dump()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				ver := Version{Counter: uint64(rng.Intn(64)), Writer: cluster.NodeID(w)}
				s.apply(k, ver, fmt.Sprintf("%d.%d", ver.Counter, ver.Writer))
				s.get(k)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-dumped
	if got := s.lenKeys(); got > keys {
		t.Fatalf("map holds %d keys, want ≤ %d", got, keys)
	}
	for i := range s.shards {
		if n := len(s.shards[i].slots); n < 16*minSlots {
			t.Fatalf("shard %d ended with %d slots: the workers never grew it past %d", i, n, 16*minSlots)
		}
	}
	// Every surviving entry's value matches its version: merges were atomic.
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		ver, val := s.get(k)
		if ver == (Version{}) {
			continue
		}
		if want := fmt.Sprintf("%d.%d", ver.Counter, ver.Writer); val != want {
			t.Fatalf("key %q: value %q does not match version %v", k, val, ver)
		}
	}
	// Monotonicity: an older apply never overwrites.
	s.apply("k0", Version{Counter: 1000, Writer: 1}, "new")
	if s.apply("k0", Version{Counter: 999, Writer: 9}, "old") {
		t.Fatal("older version overwrote newer")
	}
	if _, val := s.get("k0"); val != "new" {
		t.Fatalf("k0 = %q, want new", val)
	}
}

// TestSuspectTTLRefreshesPickCache: the pick cache is keyed by the suspect
// set's fingerprint, so a suspicion expiring — which silently shrinks the
// suspect set — must invalidate it. A cache that kept serving the
// suspicion-era quorum would shun a restarted replica forever.
func TestSuspectTTLRefreshesPickCache(t *testing.T) {
	const ttl = time.Second // 4×Timeout
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 16, hgrid44All()), Timeout: ttl / 4})
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{rng: rand.New(rand.NewSource(6))}
	op := n.getOp()

	// Prime the cache on the clean view.
	if err := n.pickQuorum(env, op, true); err != nil {
		t.Fatal(err)
	}
	clean := op.quorum.Clone()

	// Suspect a cached-quorum member: the fingerprint changes, so the next
	// pick must be fresh and avoid the suspect.
	victim := clean.Indices()[0]
	n.suspects.Add(victim, env.now)
	if err := n.pickQuorum(env, op, true); err != nil {
		t.Fatal(err)
	}
	if op.quorum.Contains(victim) {
		t.Fatalf("pick after suspicion contains suspect %d", victim)
	}
	shunned := op.quorum.Clone()
	fpShunned := n.picks[0].fp

	// Same view again: cache hit, same quorum.
	if err := n.pickQuorum(env, op, true); err != nil {
		t.Fatal(err)
	}
	if !op.quorum.Equal(shunned) {
		t.Fatal("cache miss on unchanged suspect set")
	}

	// Let the suspicion expire. Decay runs inside pickQuorum, so
	// the pick itself must notice the fingerprint change and redraw —
	// with this seed the fresh draw includes the rehabilitated victim,
	// which the stale cache entry never could.
	env.now += ttl
	if err := n.pickQuorum(env, op, true); err != nil {
		t.Fatal(err)
	}
	if n.suspects.Contains(victim) {
		t.Fatal("suspicion did not expire")
	}
	if fp := n.picks[0].fp; fp == fpShunned {
		t.Fatal("cache fingerprint not refreshed after TTL expiry")
	}
	if !op.quorum.Contains(victim) {
		t.Fatalf("post-expiry pick %v excludes rehabilitated replica %d (seed-dependent; pick a seed whose fresh draw includes it)", op.quorum, victim)
	}
}
