package rkv

import (
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/lease"
	"hquorum/internal/tuner"
)

func leaseCfgFast() *lease.Config {
	return &lease.Config{
		Shards:      8,
		TTL:         400 * time.Millisecond,
		Check:       50 * time.Millisecond,
		MinOps:      0, // always-grant: the tests drive invalidation explicitly
		MinReadFrac: -1,
		Acquire:     true,
	}
}

// checkReadsFresh asserts the real-time core of linearizability across
// the run: any read that STARTED after a write COMPLETED must observe a
// version at least as new. Locally served lease reads are exactly the
// ops that could violate this if the protocol leaked a stale value.
func checkReadsFresh(t *testing.T, results []Result) {
	t.Helper()
	for _, w := range results {
		if w.Err != nil || w.Kind == OpRead {
			continue
		}
		for _, r := range results {
			if r.Err != nil || r.Kind != OpRead || r.Key != w.Key {
				continue
			}
			if r.Start >= w.At && r.Version.Less(w.Version) {
				t.Fatalf("stale read: node %d read %q=%v (ver %v) starting at %v, after node %d's write (ver %v) completed at %v",
					r.Node, r.Key, r.Value, r.Version, r.Start, w.Node, w.Version, w.At)
			}
		}
	}
}

// captureEnv is a fakeEnv that records armed timers, for unit tests
// that drive the write barrier's state machine directly.
type captureEnv struct {
	fakeEnv
	timers []capturedTimer
}

type capturedTimer struct {
	d     time.Duration
	token any
}

func (e *captureEnv) After(d time.Duration, token any) {
	e.timers = append(e.timers, capturedTimer{d, token})
}

// TestLeaseInvalAckQuarantineBarrier is the ack-path regression: the
// last invalidation ack arriving while the write quarantine is still
// running must NOT ship the write — an unknown pre-crash leaseholder
// may still be serving stale local reads until the quarantine proves it
// expired. The round stays in phaseInval with a wake-up armed for
// exactly the quarantine's end, then ships on the retry.
func TestLeaseInvalAckQuarantineBarrier(t *testing.T) {
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 16, hgrid44All())})
	if err != nil {
		t.Fatal(err)
	}
	env := &captureEnv{fakeEnv: fakeEnv{rng: rand.New(rand.NewSource(11)), now: time.Second}}
	quarantineEnd := env.now + 500*time.Millisecond
	n.leaseBlockedUntil = quarantineEnd
	n.lt.Record(1, lease.Entry{Seq: 7, Mask: lease.Bit(lease.ShardOf("k", 8)), Shards: 8, Expiry: env.now + 2*time.Second}, env.now)

	op := n.getOp()
	op.started = env.now
	op.p2Keys = append(op.p2Keys, "k")
	op.p2Vers = append(op.p2Vers, Version{Counter: 1, Writer: 0})
	op.p2Vals = append(op.p2Vals, "v")
	n.enterWritePhase(env, op)
	if op.ph != phaseInval {
		t.Fatalf("phase %v, want inval (holder 1 has a live entry)", op.ph)
	}
	n.leaseOnInvalAck(env, 1, op.seq)
	if op.ph != phaseInval {
		t.Fatalf("phase %v after the final ack, want inval: the quarantine is still running", op.ph)
	}
	last := env.timers[len(env.timers)-1]
	if last.d != quarantineEnd-env.now {
		t.Fatalf("armed %v, want the quarantine remainder %v", last.d, quarantineEnd-env.now)
	}
	if tk, ok := last.token.(tokenOpDue); !ok || tk.Seq != op.seq {
		t.Fatalf("armed token %#v, want tokenOpDue for seq %d", last.token, op.seq)
	}
	// The quarantine lifts: the retry recomputes the barrier and ships.
	env.now = quarantineEnd
	n.retryPhase(env, op)
	if op.ph != phaseWrite {
		t.Fatalf("phase %v after the quarantine lifted, want write", op.ph)
	}
}

// TestLeaseQuarantineTimerDeadlineCap: a quarantine-only invalidation
// phase (no targets, table lost) arms its wake-up for the quarantine's
// end clamped to the op deadline — not an unrelated backoff retry.
func TestLeaseQuarantineTimerDeadlineCap(t *testing.T) {
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 16, hgrid44All()), OpDeadline: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env := &captureEnv{fakeEnv: fakeEnv{rng: rand.New(rand.NewSource(12)), now: time.Second}}
	n.leaseBlockedUntil = env.now + 500*time.Millisecond
	op := n.getOp()
	op.started = env.now
	op.p2Keys = append(op.p2Keys, "k")
	op.p2Vers = append(op.p2Vers, Version{Counter: 1, Writer: 0})
	op.p2Vals = append(op.p2Vals, "v")
	n.enterWritePhase(env, op)
	if op.ph != phaseInval {
		t.Fatalf("phase %v, want inval (quarantine running)", op.ph)
	}
	last := env.timers[len(env.timers)-1]
	if last.d != 200*time.Millisecond {
		t.Fatalf("armed %v, want the 200ms deadline remainder (quarantine outlives the deadline)", last.d)
	}
}

// TestLeaseDropSeqGate is the reordering regression (WithFIFO(false)
// networks): a delayed drop broadcast sent before a re-grant must not
// erase the re-granted entry's bits — only a drop the holder issued
// after the recorded grant (higher Seq from the shared counter) clears.
func TestLeaseDropSeqGate(t *testing.T) {
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 16, hgrid44All())})
	if err != nil {
		t.Fatal(err)
	}
	n.lt.Record(2, lease.Entry{Seq: 10, Mask: 0b11, Shards: 8, Expiry: time.Second}, 0)
	n.onLeaseDrop(2, msgLeaseDrop{Seq: 5, Mask: 0b11}) // pre-grant drop, delivered late
	if e, ok := n.lt.Get(2); !ok || e.Mask != 0b11 {
		t.Fatalf("stale drop erased the live entry: %+v (ok=%v)", e, ok)
	}
	n.onLeaseDrop(2, msgLeaseDrop{Seq: 11, Mask: 0b01}) // genuine post-grant drop
	if e, ok := n.lt.Get(2); !ok || e.Mask != 0b10 {
		t.Fatalf("post-grant drop not applied: %+v (ok=%v)", e, ok)
	}
}

// TestLeaseLocalReads: a read-heavy holder ends up serving its reads
// from the local store — grants happen, local-read hits accumulate, and
// every result is correct.
func TestLeaseLocalReads(t *testing.T) {
	ops := map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Key: "k", Value: "v1"}},
	}
	for j := 0; j < 120; j++ {
		ops[0] = append(ops[0], Op{Kind: OpRead, Key: "k"})
	}
	h := &epochHarness{net: cluster.New(cluster.WithSeed(31), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 9; i++ {
		id := cluster.NodeID(i)
		st, err := epoch.NewStore(9, majority9())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Epochs:   st,
			Ops:      ops[id],
			OpGap:    10 * time.Millisecond,
			OnResult: func(r Result) { h.results = append(h.results, r) },
		}
		if i == 0 {
			cfg.Lease = leaseCfgFast()
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
	for _, n := range h.nodes {
		if err := n.Start(h.net); err != nil {
			t.Fatal(err)
		}
	}
	h.net.Run(10 * time.Second)
	if !h.nodes[0].Done() {
		t.Fatal("workload did not finish")
	}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("op failed: %+v", r)
		}
		if r.Kind == OpRead && r.Value != "v1" {
			t.Fatalf("read %q, want v1", r.Value)
		}
	}
	st := h.nodes[0].LeaseStats()
	if st.Grants == 0 {
		t.Fatal("no lease was ever granted")
	}
	if st.LocalReads == 0 {
		t.Fatal("no read was served locally")
	}
	t.Logf("lease stats: %+v (of %d reads)", st, len(ops[0])-1)
}

// TestLeaseWriterInvalidation: a remote writer to a leased shard must
// run the invalidation barrier, and no read on the leaseholder may ever
// observe a value older than a completed write.
func TestLeaseWriterInvalidation(t *testing.T) {
	ops := map[cluster.NodeID][]Op{}
	for j := 0; j < 150; j++ {
		ops[0] = append(ops[0], Op{Kind: OpRead, Key: "a"})
	}
	ops[1] = append(ops[1], Op{Kind: OpWrite, Key: "a", Value: "w0"})
	for j := 1; j < 12; j++ {
		ops[1] = append(ops[1], Op{Kind: OpWrite, Key: "a", Value: "w" + string(rune('0'+j%10))})
	}
	h := &epochHarness{net: cluster.New(cluster.WithSeed(32), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 9; i++ {
		id := cluster.NodeID(i)
		st, err := epoch.NewStore(9, majority9())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Epochs:   st,
			Ops:      ops[id],
			OnResult: func(r Result) { h.results = append(h.results, r) },
		}
		switch i {
		case 0:
			cfg.OpGap = 10 * time.Millisecond
			cfg.Lease = leaseCfgFast()
		case 1:
			cfg.OpGap = 120 * time.Millisecond // spread writes across grant cycles
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
	for _, n := range h.nodes {
		if err := n.Start(h.net); err != nil {
			t.Fatal(err)
		}
	}
	h.net.Run(20 * time.Second)
	for i, n := range h.nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish", i)
		}
	}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("op failed: %+v", r)
		}
	}
	checkReadsFresh(t, h.results)
	holder := h.nodes[0].LeaseStats()
	writer := h.nodes[1].LeaseStats()
	if holder.Grants == 0 || holder.LocalReads == 0 {
		t.Fatalf("holder never served locally: %+v", holder)
	}
	if writer.InvalRounds == 0 {
		t.Fatalf("writer never ran the invalidation barrier: %+v (holder %+v)", writer, holder)
	}
	t.Logf("holder %+v, writer %+v", holder, writer)
}

// TestLeaseEpochSwapRevokes is the reconfiguration regression: a
// tuner-driven epoch swap mid-lease must revoke every lease (the sweep
// fences the old epoch before the joint config installs) and invalidate
// both pick caches — no stale local read may cross an epoch.
func TestLeaseEpochSwapRevokes(t *testing.T) {
	ops := make(map[cluster.NodeID][]Op)
	for i := 0; i < 16; i++ {
		var w []Op
		w = append(w, Op{Kind: OpWrite, Key: "k", Value: "v0"})
		for j := 0; j < 79; j++ {
			w = append(w, Op{Kind: OpRead, Key: "k"})
		}
		ops[cluster.NodeID(i)] = w
	}
	h := &epochHarness{net: cluster.New(cluster.WithSeed(33), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 16; i++ {
		id := cluster.NodeID(i)
		st, err := epoch.NewStore(16, majority16())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Epochs:   st,
			Ops:      ops[id],
			OpGap:    4 * time.Millisecond,
			OnResult: func(r Result) { h.results = append(h.results, r) },
		}
		if i == 0 {
			cfg.AutoTune = &tuner.Policy{
				Interval: 50 * time.Millisecond,
				HoldFor:  2,
				MinOps:   16,
			}
		}
		if i == 1 {
			cfg.Lease = leaseCfgFast()
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
	for _, n := range h.nodes {
		if err := n.Start(h.net); err != nil {
			t.Fatal(err)
		}
	}
	h.net.Run(30 * time.Second)
	for i, n := range h.nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish", i)
		}
	}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("node %d op %d failed across the swap: %v", r.Node, r.OpID, r.Err)
		}
	}
	checkReadsFresh(t, h.results)
	// The swap happened despite a live lease: the sweep revoked it first.
	cfg := h.stores[0].Snapshot()
	if cfg.Epoch < 3 {
		t.Fatalf("auto-tune never completed a swap: epoch %d (holder may have blocked it)", cfg.Epoch)
	}
	if cfg.Joint() {
		t.Fatalf("cluster left joint at epoch %d", cfg.Epoch)
	}
	holder := h.nodes[1]
	if holder.LeaseStats().Grants == 0 {
		t.Fatal("holder never acquired a lease — the test exercised nothing")
	}
	// Any lease still active is at the current epoch: nothing granted
	// under the old config survived the fence.
	if holder.lh.Active() != 0 && holder.lh.Epoch() != h.stores[1].Epoch() {
		t.Fatalf("active lease at epoch %d, store at %d", holder.lh.Epoch(), h.stores[1].Epoch())
	}
	// Both pick caches are epoch-keyed: a pre-swap entry must not serve
	// a post-swap pick. Draw both flavors fresh on every node and check
	// the cache lands on the current epoch with a miss, never a hit on a
	// stale entry.
	env := &fakeEnv{rng: rand.New(rand.NewSource(7)), now: h.net.Now()}
	for i, n := range h.nodes {
		ep := h.stores[i].Epoch()
		op := n.getOp()
		for f, read := range []bool{true, false} {
			stale := n.picks[f].valid && n.picks[f].epoch != ep
			pre := n.pickMisses.Load()
			if err := n.pickQuorum(env, op, read); err != nil {
				t.Fatalf("node %d post-swap pick: %v", i, err)
			}
			if stale && n.pickMisses.Load() == pre {
				t.Fatalf("node %d pick cache[%d] served a stale epoch entry", i, f)
			}
			if n.picks[f].valid && n.picks[f].epoch != ep {
				t.Fatalf("node %d pick cache[%d] cached epoch %d, store at %d", i, f, n.picks[f].epoch, ep)
			}
		}
		n.putOp(op)
	}
	// No member still records an old-epoch entry for an active lease.
	now := h.net.Now()
	for i, n := range h.nodes {
		for _, hid := range n.lt.Holders() {
			e, _ := n.lt.Get(hid)
			if now < e.Expiry && e.Epoch < h.stores[i].Epoch() && holder.lh.Active() != 0 {
				t.Fatalf("node %d: live old-epoch table entry %+v while holder is active", i, e)
			}
		}
	}
}
