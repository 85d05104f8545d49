package rkv

import (
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/history"
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
// expired. The round stays in phaseInval with its deadline at exactly
// the quarantine's end; the node's sweep reaches it there, and the retry
// ships.
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
	op.tries.Begin(env.now)
	op.p2 = append(op.p2, item{Key: "k", Ver: Version{Counter: 1, Writer: 0}, Val: "v"})
	n.enterWritePhase(env, op)
	if op.ph != phaseInval {
		t.Fatalf("phase %v, want inval (holder 1 has a live entry)", op.ph)
	}
	n.leaseOnInvalAck(env, 1, op.seq)
	if op.ph != phaseInval {
		t.Fatalf("phase %v after the final ack, want inval: the quarantine is still running", op.ph)
	}
	if op.due != quarantineEnd {
		t.Fatalf("attempt deadline %v, want the quarantine's end %v", op.due, quarantineEnd)
	}
	// The sweep armed for the barrier's first attempt (its ack timeout,
	// shorter than the quarantine) is still the pending one.
	first := env.timers[len(env.timers)-1]
	if tk, ok := first.token.(tokenSweep); !ok || tk.At != n.sweepAt || n.sweepAt >= quarantineEnd {
		t.Fatalf("pending timer %#v with sweepAt %v, want one sweep before the quarantine's end %v", first.token, n.sweepAt, quarantineEnd)
	}
	// It fires with nothing due and re-arms at the quarantine's end.
	seq := op.seq
	env.now = n.sweepAt
	n.Timer(env, first.token)
	last := env.timers[len(env.timers)-1]
	if op.seq != seq || op.ph != phaseInval {
		t.Fatalf("early sweep retried the round (seq %d→%d, phase %v)", seq, op.seq, op.ph)
	}
	if tk, ok := last.token.(tokenSweep); !ok || tk.At != quarantineEnd || last.d != quarantineEnd-env.now {
		t.Fatalf("re-armed %#v in %v, want a sweep at the quarantine's end %v", last.token, last.d, quarantineEnd)
	}
	// The superseded first token is ignored if it fires again.
	n.Timer(env, first.token)
	if len(env.timers) != 2 || op.seq != seq {
		t.Fatalf("stale sweep acted: %d timers armed, seq %d→%d", len(env.timers), seq, op.seq)
	}
	// The quarantine lifts: the sweep retries the barrier, which ships.
	env.now = quarantineEnd
	n.Timer(env, last.token)
	if op.ph != phaseWrite {
		t.Fatalf("phase %v after the quarantine lifted, want write", op.ph)
	}
}

// TestLeaseQuarantineTimerDeadlineCap: a quarantine-only invalidation
// phase (no targets, table lost) sets its deadline to the quarantine's
// end clamped to the op deadline — not an unrelated backoff retry — and
// the sweep it arms fires there and fails the round.
func TestLeaseQuarantineTimerDeadlineCap(t *testing.T) {
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 16, hgrid44All()), OpDeadline: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env := &captureEnv{fakeEnv: fakeEnv{rng: rand.New(rand.NewSource(12)), now: time.Second}}
	n.leaseBlockedUntil = env.now + 500*time.Millisecond
	op := n.getOp()
	op.tries.Begin(env.now)
	var got []Result
	op.subs = append(op.subs, subOp{kind: OpWrite, key: "k", cb: func(r Result) { got = append(got, r) }})
	op.p2 = append(op.p2, item{Key: "k", Ver: Version{Counter: 1, Writer: 0}, Val: "v"})
	n.enterWritePhase(env, op)
	if op.ph != phaseInval {
		t.Fatalf("phase %v, want inval (quarantine running)", op.ph)
	}
	deadline := env.now + 200*time.Millisecond
	if op.due != deadline {
		t.Fatalf("attempt deadline %v, want the op deadline %v (the quarantine outlives it)", op.due, deadline)
	}
	last := env.timers[len(env.timers)-1]
	if tk, ok := last.token.(tokenSweep); !ok || tk.At != deadline || last.d != 200*time.Millisecond {
		t.Fatalf("armed %#v in %v, want a sweep at the 200ms deadline remainder", last.token, last.d)
	}
	env.now = deadline
	n.Timer(env, last.token)
	if len(got) != 1 || got[0].Err == nil || n.Inflight() != 0 {
		t.Fatalf("after the deadline sweep: results %+v, %d rounds in flight; want the round failed", got, n.Inflight())
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
// every result is correct. The lease must pay on the wire: counted up to
// the last callback (renewals go on after it), the leased run sends at
// most a quarter of the messages per op of the same run without a lease.
func TestLeaseLocalReads(t *testing.T) {
	ops := []Op{{Kind: OpWrite, Key: "k", Value: "v1"}}
	for j := 0; j < 120; j++ {
		ops = append(ops, Op{Kind: OpRead, Key: "k"})
	}
	// run drives ops on node 0 of nine majority replicas, 10ms apart, and
	// returns the node and the messages delivered when the last callback
	// fired.
	run := func(leased bool) (*Node, uint64) {
		h := &epochHarness{net: cluster.New(cluster.WithSeed(31), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
		for i := 0; i < 9; i++ {
			id := cluster.NodeID(i)
			st, err := epoch.NewStore(9, majority9())
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Epochs: st}
			if i == 0 && leased {
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
		submitAll(t, h.net, h.nodes, 10*time.Millisecond, map[cluster.NodeID][]Op{0: ops}, &h.results)
		for len(h.results) < len(ops) {
			if h.net.Now() > 10*time.Second || !h.net.Step() {
				t.Fatalf("leased=%t: %d of %d ops answered at %v", leased, len(h.results), len(ops), h.net.Now())
			}
		}
		for _, r := range h.results {
			if r.Err != nil {
				t.Fatalf("op failed: %+v", r)
			}
			if r.Kind == OpRead && r.Value != "v1" {
				t.Fatalf("read %q, want v1", r.Value)
			}
		}
		return h.nodes[0], h.net.Messages()
	}
	holder, leasedMsgs := run(true)
	st := holder.LeaseStats()
	if st.Grants == 0 {
		t.Fatal("no lease was ever granted")
	}
	if st.LocalReads == 0 {
		t.Fatal("no read was served locally")
	}
	_, plainMsgs := run(false)
	leased, plain := float64(leasedMsgs)/float64(len(ops)), float64(plainMsgs)/float64(len(ops))
	t.Logf("lease stats: %+v (of %d reads); msgs/op leased %.2f, unleased %.2f (%.3fx)", st, len(ops)-1, leased, plain, leased/plain)
	if leased > 0.25*plain {
		t.Fatalf("leased run sends %.2f msgs/op, more than 0.25x the unleased run's %.2f", leased, plain)
	}
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
		cfg := Config{Epochs: st}
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
	submitAll(t, h.net, h.nodes, 10*time.Millisecond, map[cluster.NodeID][]Op{0: ops[0]}, &h.results)
	// The writer's ops go out further apart, spread across grant cycles.
	submitSeq(h.net, h.nodes[1], 120*time.Millisecond, &h.results, ops[1]...)
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
		cfg := Config{Epochs: st}
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
	submitAll(t, h.net, h.nodes, 4*time.Millisecond, ops, &h.results)
	h.net.Run(30 * time.Second)
	for i, n := range h.nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish", i)
		}
	}
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("node %d %v failed across the swap: %v", r.Node, r.Kind, r.Err)
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

// leaseSim is a cluster on a fixed 2 ms link — one quorum round trip is
// simRTT of virtual time, two are twice that — with every node driven
// through Submit. newLeaseSim's is nine majority replicas with node 0
// holding leases; bootSim takes any configuration. It keeps every frame
// of either phase as its replica received it, and the whole operation
// history (each submitted op its own history client: Submit makes no
// ordering promise between ops whose callbacks the caller did not await).
type leaseSim struct {
	t      *testing.T
	net    *cluster.Network
	nodes  []*Node
	stores []*epoch.Store
	p1All  []simFrame
	p2     []simFrame
	hist   *history.Register
	ops    int
	fired  []*simOp // in callback order

	// park, when set, decides per arriving frame whether to hold it back;
	// release delivers what was held, in arrival order.
	park   func(from, to cluster.NodeID, msg any) bool
	parked []func()
}

const simRTT = 4 * time.Millisecond

// simFrame is one phase-1 or phase-2 frame as a replica received it.
type simFrame struct {
	from, to cluster.NodeID
	seq      uint64
	keys     []string
}

// simOp is one submitted operation (the n-th); done flips when its
// callback fires.
type simOp struct {
	Result
	n    int
	done bool
}

// simTap records the frames the tests assert on, on their way into a
// replica, and holds back what the test parks.
type simTap struct {
	*Node
	s *leaseSim
}

func (h simTap) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	if h.s.park != nil && h.s.park(from, h.id, msg) {
		h.s.parked = append(h.s.parked, func() { h.Node.Deliver(env, from, msg) })
		return
	}
	switch m := msg.(type) {
	case msgReadBatch:
		h.s.p1All = append(h.s.p1All, simFrame{from: from, to: h.id, seq: m.Seq, keys: m.Keys})
	case msgWriteBatch:
		keys := make([]string, len(m.Items))
		for i, it := range m.Items {
			keys[i] = it.Key
		}
		h.s.p2 = append(h.s.p2, simFrame{from: from, to: h.id, seq: m.Seq, keys: keys})
	}
	h.Node.Deliver(env, from, msg)
}

// p1 lists the keys of every version-read frame node 0 (the holder) sent.
func (s *leaseSim) p1() [][]string {
	var out [][]string
	for _, f := range s.p1All {
		if f.from == 0 {
			out = append(out, f.keys)
		}
	}
	return out
}

// release stops parking and delivers the held frames.
func (s *leaseSim) release() {
	s.park = nil
	for _, deliver := range s.parked {
		deliver()
	}
	s.parked = nil
}

// newLeaseSim boots the cluster and runs it until the holder's lease is
// active on every shard.
func newLeaseSim(t *testing.T, seed int64, base Config) *leaseSim {
	t.Helper()
	s := bootLeaseSim(t, seed, base)
	s.awaitLease()
	return s
}

// bootLeaseSim builds and starts the nine-replica majority cluster at
// virtual time zero (base is every node's config; node 0 also gets the
// lease, its first policy tick one Check away).
func bootLeaseSim(t *testing.T, seed int64, base Config) *leaseSim {
	t.Helper()
	return bootSim(t, seed, 9, majority9(), func(id int) Config {
		cfg := base
		if id == 0 {
			cfg.Lease = leaseCfgFast()
		}
		return cfg
	})
}

// bootSim builds and starts space nodes running params at virtual time
// zero; cfgFor supplies each node's config (its epoch store and OpGap are
// filled in here). IDs beyond params' members are sessions: they
// coordinate but hold no data.
func bootSim(t *testing.T, seed int64, space int, params epoch.Params, cfgFor func(id int) Config) *leaseSim {
	t.Helper()
	s := &leaseSim{
		t:    t,
		net:  cluster.New(cluster.WithSeed(seed), cluster.WithLatency(simRTT/2, simRTT/2)),
		hist: history.NewRegister(),
	}
	for i := 0; i < space; i++ {
		id := cluster.NodeID(i)
		cfg := cfgFor(i)
		cfg.Epochs = testEpochs(t, space, params)
		cfg.OpGap = -1
		n, err := NewNode(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.net.AddNode(id, simTap{n, s}); err != nil {
			t.Fatal(err)
		}
		wakeOn(s.net, n)
		if err := n.Start(s.net); err != nil {
			t.Fatal(err)
		}
		s.nodes = append(s.nodes, n)
		s.stores = append(s.stores, cfg.Epochs)
	}
	return s
}

// awaitLease runs until the holder serves every shard (a grant takes one
// policy tick plus three round trips; an invalidated shard cools for
// half a TTL first).
func (s *leaseSim) awaitLease() {
	s.t.Helper()
	s.net.Run(s.net.Now() + 400*time.Millisecond)
	if lh := s.nodes[0].lh; lh.Active() != lease.MaskAll(lh.Config().Shards) {
		s.t.Fatalf("holder serves mask %b at %v, want every shard", lh.Active(), s.net.Now())
	}
}

func (s *leaseSim) submit(id int, op Op) *simOp {
	c := s.ops
	p := &simOp{n: c}
	s.ops++
	kind, value := history.KindWrite, op.Value
	if op.Kind == OpRead {
		kind, value = history.KindRead, ""
	}
	s.hist.InvokeKeyed(c, kind, op.Key, value, s.net.Now())
	s.nodes[id].Submit(op, func(r Result) {
		p.Result, p.done = r, true
		s.fired = append(s.fired, p)
		if r.Err != nil {
			s.hist.Fail(c, r.At)
			return
		}
		s.hist.Complete(c, r.Value, r.Version.Counter<<8|uint64(r.Version.Writer)&0xff, r.At)
	})
	return p
}

// wait steps the simulation exactly as far as the last callback.
func (s *leaseSim) wait(ops ...*simOp) {
	s.t.Helper()
	limit := s.net.Now() + 5*time.Second
	for _, p := range ops {
		for !p.done {
			if s.net.Now() > limit || !s.net.Step() {
				s.t.Fatalf("operation still pending at %v", s.net.Now())
			}
		}
		if p.Err != nil {
			s.t.Fatalf("operation failed: %+v", p.Result)
		}
	}
}

func (s *leaseSim) do(id int, op Op) Result {
	s.t.Helper()
	p := s.submit(id, op)
	s.wait(p)
	return p.Result
}

// took is an operation's duration in whole round trips (same-instant
// sends on one link are spaced a nanosecond apart, hence the rounding).
func took(r Result) int { return int((r.At - r.Start + simRTT/2) / simRTT) }

func (s *leaseSim) checkHistory() {
	s.t.Helper()
	if err := history.CheckRegisterPerKey(s.hist.Ops()); err != nil {
		s.t.Fatalf("history is not linearizable: %v", err)
	}
}

// otherShardKey returns a key outside key's lease shard.
func otherShardKey(key string, shards int) string {
	for i := 0; ; i++ {
		if k := "u" + string(rune('a'+i)); lease.ShardOf(k, shards) != lease.ShardOf(key, shards) {
			return k
		}
	}
}

// TestLeasedWriteSkipsPhase1: on a shard the holder actively leases its
// write takes the version from the local store — no version-read frame,
// one round trip, a stamp above what is stored — and a batch mixing a
// leased with an unleased write asks the cluster about the unleased key
// only.
func TestLeasedWriteSkipsPhase1(t *testing.T) {
	s := newLeaseSim(t, 51, Config{Batch: 2})
	holder := s.nodes[0]
	// A foreign write the holder must stamp above: it costs node 1 the
	// invalidation barrier, and the re-grant's pull brings it home.
	w0 := s.do(1, Op{Kind: OpWrite, Key: "k", Value: "v0"})
	s.awaitLease()
	if _, ver := holder.ValueKey("k"); ver != w0.Version {
		t.Fatalf("holder stores %v for k, want node 1's %v", ver, w0.Version)
	}

	sent := len(s.p1())
	w1 := s.do(0, Op{Kind: OpWrite, Key: "k", Value: "v1"})
	if len(s.p1()) != sent {
		t.Fatalf("leased write sent version-read frames %v", s.p1()[sent:])
	}
	if took(w1) != 1 {
		t.Fatalf("leased write took %v, want one round trip (%v)", w1.At-w1.Start, simRTT)
	}
	if !w0.Version.Less(w1.Version) {
		t.Fatalf("leased write stamped %v, not above the stored %v", w1.Version, w0.Version)
	}
	if got := holder.LeaseStats().LocalVersions; got != 1 {
		t.Fatalf("LocalVersions = %d, want 1", got)
	}

	// Node 1 takes u's shard away; k's stays leased.
	u := otherShardKey("k", 8)
	s.do(1, Op{Kind: OpWrite, Key: u, Value: "u0"})
	if holder.LeasedRead(u) || !holder.LeasedRead("k") {
		t.Fatalf("after node 1's write to %s: leased(%s)=%t leased(k)=%t", u, u, holder.LeasedRead(u), holder.LeasedRead("k"))
	}
	sent = len(s.p1())
	wk, wu := s.submit(0, Op{Kind: OpWrite, Key: "k", Value: "v2"}), s.submit(0, Op{Kind: OpWrite, Key: u, Value: "u1"})
	s.wait(wk, wu)
	if len(s.p1()) == sent {
		t.Fatal("mixed batch sent no version read for its unleased key")
	}
	for _, keys := range s.p1()[sent:] {
		if len(keys) != 1 || keys[0] != u {
			t.Fatalf("mixed batch's version read asked for %v, want only %s", keys, u)
		}
	}
	if took(wk.Result) != 2 || !w1.Version.Less(wk.Version) {
		t.Fatalf("mixed batch: k took %v with stamp %v (after %v)", wk.At-wk.Start, wk.Version, w1.Version)
	}
	if got := holder.LeaseStats().LocalVersions; got != 2 {
		t.Fatalf("LocalVersions = %d, want 2", got)
	}
	s.checkHistory()
}

// TestLeasedWritesPipelined: two writes to one leased key in flight
// together (Window 2). The second cannot learn the first's stamp from
// the store — self-keep has not applied it — yet must order after it:
// both stamps come from the node's one monotonic clock.
func TestLeasedWritesPipelined(t *testing.T) {
	s := newLeaseSim(t, 52, Config{Window: 2})
	sent := len(s.p1())
	a, b := s.submit(0, Op{Kind: OpWrite, Key: "k", Value: "a"}), s.submit(0, Op{Kind: OpWrite, Key: "k", Value: "b"})
	s.wait(a, b)
	if len(s.p1()) != sent || took(a.Result) != 1 || took(b.Result) != 1 {
		t.Fatalf("pipelined leased writes: %d version-read frames, took %v and %v", len(s.p1())-sent, a.At-a.Start, b.At-b.Start)
	}
	if a.Start != b.Start {
		t.Fatalf("writes launched at %v and %v, want one instant (the window holds both)", a.Start, b.Start)
	}
	if !a.Version.Less(b.Version) {
		t.Fatalf("second write stamped %v, not above the first's %v", b.Version, a.Version)
	}
	if r := s.do(1, Op{Kind: OpRead, Key: "k"}); r.Value != "b" || r.Version != b.Version {
		t.Fatalf("quorum read returned %q (%v), want the second write %q (%v)", r.Value, r.Version, "b", b.Version)
	}
	s.checkHistory()
}

// TestLeasedWritePaysPhase1Uncovered: the local version is trusted only
// while the lease covers the key. After another coordinator's write
// invalidated the shard, after the epoch moved, and after the holder
// restarted, its next write runs the version round again.
func TestLeasedWritePaysPhase1Uncovered(t *testing.T) {
	s := newLeaseSim(t, 53, Config{})
	holder := s.nodes[0]
	local := uint64(0)
	write := func(why string, wantLocal bool) {
		t.Helper()
		sent := len(s.p1())
		w := s.do(0, Op{Kind: OpWrite, Key: "k", Value: why})
		rounds := 2
		if wantLocal {
			rounds = 1
			local++
		}
		if took(w) != rounds || (len(s.p1()) == sent) != wantLocal {
			t.Fatalf("%s: write took %v and sent %d version-read frames, want %d round(s)", why, w.At-w.Start, len(s.p1())-sent, rounds)
		}
		if got := holder.LeaseStats().LocalVersions; got != local {
			t.Fatalf("%s: LocalVersions = %d, want %d", why, got, local)
		}
	}
	write("covered", true)

	s.do(1, Op{Kind: OpWrite, Key: "k", Value: "foreign"})
	write("invalidated", false)
	s.awaitLease()
	write("re-granted", true)

	// Every store moves to epoch 2 at one instant; the holder's lease is
	// still the one granted under epoch 1.
	for _, st := range s.stores {
		if ok, err := st.Install(epoch.Config{Epoch: 2, Cur: majority9()}); err != nil || !ok {
			t.Fatalf("install epoch 2: %t, %v", ok, err)
		}
	}
	if holder.lh.Active() == 0 || holder.lh.Epoch() != 1 {
		t.Fatalf("holder lease: mask %b epoch %d, want the epoch-1 lease still held", holder.lh.Active(), holder.lh.Epoch())
	}
	write("epoch moved", false)
	s.awaitLease()
	write("re-granted under epoch 2", true)

	s.net.Crash(0)
	s.net.Restart(0)
	write("restarted", false)
	s.checkHistory()
}

// TestLeaseGrantKeepsOwnInflightWrite: the grant's pull∪push brackets
// what the replicas held when the pull was served — not a write the
// holder itself had on the wire, which no member can nack for it (the
// wave never asks the holder). One that reaches the replicas after the
// pull and completes before activation must be in the local store when
// local reads start, or the first local read of its key is stale.
func TestLeaseGrantKeepsOwnInflightWrite(t *testing.T) {
	s := bootLeaseSim(t, 55, Config{})
	holder := s.nodes[0]
	// Something for the pull to find, so the grant pushes before it
	// activates: wave, pull and push take a round trip each.
	s.do(0, Op{Kind: OpWrite, Key: otherShardKey("k", 8), Value: "a0"})
	tick := leaseCfgFast().Check
	s.net.Run(tick + simRTT/4) // the wave is out
	if holder.lh.Idle() {
		t.Fatalf("no grant wave in flight at %v", s.net.Now())
	}
	// Phase 1 rides alongside the wave; phase 2 reaches the replicas just
	// after the pull was served and is acked before the push is.
	w := s.do(0, Op{Kind: OpWrite, Key: "k", Value: "v1"})
	if holder.lh.Idle() || holder.lh.Active() != 0 {
		t.Fatalf("write completed at %v outside the grant (idle=%t active=%b): the test lost its race", w.At, holder.lh.Idle(), holder.lh.Active())
	}
	s.net.Run(tick + 4*simRTT)
	reads := holder.LeaseStats().LocalReads
	r := s.do(0, Op{Kind: OpRead, Key: "k"})
	if holder.LeaseStats().LocalReads != reads+1 {
		t.Fatalf("read at %v was not served locally: %+v", r.At, holder.LeaseStats())
	}
	if r.Value != "v1" || r.Version != w.Version {
		t.Fatalf("local read returned %q (%v) after the holder's own write of %q (%v) completed", r.Value, r.Version, "v1", w.Version)
	}
	s.checkHistory()
}
