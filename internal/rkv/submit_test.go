package rkv

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/quorum"
)

// TestSubmitExternalOps drives a node purely through Submit: a write,
// then — chained from the write's callback — a read that must observe
// it.
func TestSubmitExternalOps(t *testing.T) {
	h := newHarness(t, 41, nil, nil)
	node := h.nodes[0]
	var got []Result
	node.Submit(Op{Kind: OpWrite, Key: "k", Value: "ext"}, func(r Result) {
		got = append(got, r)
		node.Submit(Op{Kind: OpRead, Key: "k"}, func(r Result) {
			got = append(got, r)
		})
	})
	h.net.RunAll()
	if len(got) != 2 {
		t.Fatalf("callbacks fired %d times, want 2", len(got))
	}
	if got[0].Err != nil || got[1].Err != nil {
		t.Fatalf("errors: %v, %v", got[0].Err, got[1].Err)
	}
	if got[1].Value != "ext" {
		t.Fatalf("chained read returned %q, want ext", got[1].Value)
	}
}

// TestSubmitCoalesces pushes a burst through a windowed, batched node:
// every callback fires exactly once and the ops ride shared rounds
// (message count well under one round per op).
func TestSubmitCoalesces(t *testing.T) {
	h := newHarnessCfg(t, 42, Config{Window: 2, Batch: 4, OpGap: -1}, nil, nil)
	node := h.nodes[3]
	const burst = 16
	done := 0
	for i := 0; i < burst; i++ {
		node.Submit(Op{Kind: OpBlindWrite, Key: "k", Value: "v"}, func(r Result) {
			if r.Err != nil {
				t.Errorf("burst op failed: %v", r.Err)
			}
			done++
		})
	}
	h.net.RunAll()
	if done != burst {
		t.Fatalf("callbacks fired %d times, want %d", done, burst)
	}
	// 16 blind writes at Batch=4 need 4 write rounds of 4 messages each
	// (hgrid write quorum is 4 of 16); unbatched they would cost 4× that.
	if msgs := h.net.Messages(); msgs > 3*burst {
		t.Fatalf("burst cost %d messages — batching broken", msgs)
	}
}

// TestSubmitRestartedFailsTyped crashes the coordinator with external
// ops in flight: every waiting callback must fire with ErrRestarted, and
// the restarted node must accept fresh submissions.
func TestSubmitRestartedFailsTyped(t *testing.T) {
	h := newHarnessCfg(t, 43, Config{Window: 4, OpGap: -1}, nil, nil)
	node := h.nodes[0]
	var errs []error
	for i := 0; i < 4; i++ {
		node.Submit(Op{Kind: OpWrite, Key: "k", Value: "doomed"}, func(r Result) {
			errs = append(errs, r.Err)
		})
	}
	// Phase-1 messages take ≥1ms in the harness sim, so at 500µs the
	// rounds are mid-flight.
	h.net.Schedule(500*time.Microsecond, func() {
		h.net.Crash(0)
		h.net.Restart(0)
	})
	h.net.RunAll()
	if len(errs) != 4 {
		t.Fatalf("callbacks fired %d times, want 4", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrRestarted) {
			t.Fatalf("got %v, want ErrRestarted", err)
		}
	}
	var after *Result
	node.Submit(Op{Kind: OpWrite, Key: "k", Value: "recovered"}, func(r Result) { after = &r })
	h.net.RunAll()
	if after == nil || after.Err != nil {
		t.Fatalf("post-restart submit got %+v, want success", after)
	}
}

// wanCost prices a 4x4 grid whose top band (nodes 0-7) is the session's
// own region and whose bottom band is a WAN hop away.
func wanCost() []time.Duration {
	cost := make([]time.Duration, 16)
	for i := range cost {
		cost[i] = 400 * time.Microsecond
		if i >= 8 {
			cost[i] = 20 * time.Millisecond
		}
	}
	return cost
}

func htgrid44All() epoch.Params {
	return epoch.Params{Flavor: epoch.FlavorHTGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
}

// costAwareNode builds a 17th, non-member session over a 4x4 h-T-grid
// that picks by wanCost.
func costAwareNode(t *testing.T, samples int) *Node {
	t.Helper()
	st, err := epoch.NewStore(17, htgrid44All())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(16, Config{Epochs: st, PickCost: wanCost(), PickSamples: samples})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCostAwarePickTakesCheapestQuorum: with PickCost on, both rounds of
// an operation land on the one h-T-grid quorum that never leaves the top
// band — the read rides a write quorum, since every row-cover needs a
// block of the remote band. PickSamples <= 1 leaves the picks cost-blind:
// the same rng draws as the store's own PickRead.
func TestCostAwarePickTakesCheapestQuorum(t *testing.T) {
	n := costAwareNode(t, 8)
	env := &fakeEnv{rng: rand.New(rand.NewSource(1))}
	want := bitset.FromIndices(17, 0, 1, 2, 3)
	for _, read := range []bool{true, false} {
		op := n.getOp()
		if err := n.pickQuorum(env, op, read); err != nil {
			t.Fatal(err)
		}
		if !op.quorum.Equal(want) {
			t.Errorf("read=%t picked %v, want the top line %v", read, op.quorum, want)
		}
	}

	blind := costAwareNode(t, 1)
	op := blind.getOp()
	if err := blind.pickQuorum(&fakeEnv{rng: rand.New(rand.NewSource(5))}, op, true); err != nil {
		t.Fatal(err)
	}
	ref, err := blind.cfg.Epochs.PickRead(rand.New(rand.NewSource(5)), bitset.Universe(17))
	if err != nil {
		t.Fatal(err)
	}
	if !op.quorum.Equal(ref) {
		t.Errorf("PickSamples=1 picked %v, the store's own draw is %v", op.quorum, ref)
	}
}

// TestCostAwareDiagnosisSeesWriteQuorums: the pick, its no-quorum
// fallback and the deadline diagnosis consult one read family. With the
// whole bottom band suspected no row-cover is left, but a top-band
// h-T-grid line still serves the cost-aware read; ErrNoQuorum is reported
// only once the write quorums are dead as well.
func TestCostAwareDiagnosisSeesWriteQuorums(t *testing.T) {
	env := &fakeEnv{rng: rand.New(rand.NewSource(2))}
	suspect := func(n *Node, op *opState, ids ...int) {
		for _, id := range ids {
			n.suspects.Add(id, env.now)
			op.tries.Silent.Add(id)
		}
	}
	bottom := []int{8, 9, 10, 11, 12, 13, 14, 15}

	n := costAwareNode(t, 8)
	op := n.getOp()
	op.ph = phaseReadVersions
	suspect(n, op, bottom...)
	if err := n.pickQuorum(env, op, true); err != nil {
		t.Fatal(err)
	}
	if op.tries.NoQuorum || n.suspects.Count() != len(bottom) {
		t.Fatalf("read fell back to the full universe (NoQuorum=%t, %d suspects left) although a top-band line is live",
			op.tries.NoQuorum, n.suspects.Count())
	}
	op.quorum.ForEach(func(id int) {
		if id >= 8 {
			t.Fatalf("read quorum %v uses suspected node %d", op.quorum, id)
		}
	})
	if err := n.deadlineError(env, op); !errors.Is(err, quorum.ErrDegraded) {
		t.Fatalf("deadline diagnosis %v, want ErrDegraded: a live quorum exists", err)
	}
	// Break both rows of one top-band block: no full-line, so no
	// h-T-grid quorum either.
	suspect(n, op, 0, 4)
	if err := n.deadlineError(env, op); !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("deadline diagnosis %v, want ErrNoQuorum: both read families are dead", err)
	}
	if err := n.pickQuorum(env, op, true); err != nil || !op.tries.NoQuorum {
		t.Fatalf("pick with both families dead: err=%v NoQuorum=%t, want the clear-and-retry fallback", err, op.tries.NoQuorum)
	}

	// The cost-blind session reads row-covers only, and says so.
	blind := costAwareNode(t, 1)
	op = blind.getOp()
	op.ph = phaseReadVersions
	suspect(blind, op, bottom...)
	if err := blind.deadlineError(env, op); !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("cost-blind deadline diagnosis %v, want ErrNoQuorum: every row-cover is dead", err)
	}
}

// TestPickCostEndToEnd runs real rounds with cost-aware picks on and the
// remote band crashed: writes and the reads riding their quorums complete
// inside the home band without a retry.
func TestPickCostEndToEnd(t *testing.T) {
	ops := map[cluster.NodeID][]Op{
		16: {{Kind: OpWrite, Value: "w"}, {Kind: OpRead}},
	}
	h := newEpochHarnessCfg(t, 44, 17, htgrid44All(), Config{PickCost: wanCost(), PickSamples: 4}, ops)
	for id := 8; id < 16; id++ {
		h.net.Crash(cluster.NodeID(id))
	}
	h.net.Run(30 * time.Second)
	if len(h.results) != 2 || h.results[1].Value != "w" {
		t.Fatalf("cost-aware run results %+v", h.results)
	}
	for _, r := range h.results {
		if r.Err != nil || r.Retries != 0 {
			t.Errorf("%v: err=%v retries=%d, want a clean in-band round", r.Kind, r.Err, r.Retries)
		}
	}
}

// TestLeasedReadServedAtAdmission: with the window's one place taken by
// a write still on the wire, a submitted read the lease covers is
// answered when it is admitted — before that write — while a read on an
// unleased key and a second write wait their turn, in order.
func TestLeasedReadServedAtAdmission(t *testing.T) {
	s := newLeaseSim(t, 54, Config{Window: 1})
	holder := s.nodes[0]
	s.do(0, Op{Kind: OpWrite, Key: "k", Value: "v0"})
	u := otherShardKey("k", 8)
	s.do(1, Op{Kind: OpWrite, Key: u, Value: "u0"}) // takes u's shard away

	w1 := s.submit(0, Op{Kind: OpWrite, Key: "k", Value: "v1"})
	s.net.Run(s.net.Now() + simRTT/4) // w1 is on the wire
	if holder.Inflight() != 1 {
		t.Fatalf("%d rounds in flight, want w1's", holder.Inflight())
	}
	reads := holder.LeaseStats().LocalReads
	fired := len(s.fired)
	ru := s.submit(0, Op{Kind: OpRead, Key: u})
	w2 := s.submit(0, Op{Kind: OpWrite, Key: "k", Value: "v2"})
	rk := s.submit(0, Op{Kind: OpRead, Key: "k"})
	admitted := s.net.Now()
	s.wait(rk)
	if rk.At != admitted || rk.Value != "v0" || w1.done {
		t.Fatalf("leased read: done at %v (admitted %v) with %q, w1 done=%t; want it served at admission with v0", rk.At, admitted, rk.Value, w1.done)
	}
	if holder.Inflight() != 1 || len(holder.extRun) != 2 || holder.extRun[0].op.Key != u || holder.extRun[1].op.Value != "v2" {
		t.Fatalf("after admission: %d in flight, queue %+v; want w1 in flight and [read %s, write v2] queued", holder.Inflight(), holder.extRun, u)
	}
	s.wait(w1, ru, w2)
	if got := holder.LeaseStats().LocalReads - reads; got != 1 {
		t.Fatalf("%d local reads, want the one leased read", got)
	}
	if got := s.fired[fired:]; len(got) != 4 || got[0] != rk || got[1] != w1 || got[2] != ru || got[3] != w2 {
		t.Fatalf("callbacks fired out of order (want leased read, w1, unleased read, w2): %+v", got)
	}
	if ru.Value != "u0" || took(ru.Result) != 1 || ru.Start < w1.At {
		t.Fatalf("unleased read: %q in %v starting %v (w1 done %v); want a quorum read after w1", ru.Value, ru.At-ru.Start, ru.Start, w1.At)
	}
	if r := s.do(0, Op{Kind: OpRead, Key: "k"}); r.Value != "v2" {
		t.Fatalf("final read returned %q, want v2", r.Value)
	}
	s.checkHistory()
}
