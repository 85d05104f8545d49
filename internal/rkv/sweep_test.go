package rkv

import (
	"testing"
	"time"

	"hquorum/internal/cluster"
)

// timerCount runs a node with an env that counts the timers the node
// arms, launch kicks (tokenNextOp) aside: what is left are the attempt
// deadlines.
type timerCount struct {
	*Node
	armed *int
}

type countingEnv struct {
	cluster.Env
	armed *int
}

func (e countingEnv) After(d time.Duration, token any) {
	if _, kick := token.(tokenNextOp); !kick {
		*e.armed++
	}
	e.Env.After(d, token)
}

func (h timerCount) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	h.Node.Deliver(countingEnv{env, h.armed}, from, msg)
}

func (h timerCount) Timer(env cluster.Env, token any) {
	h.Node.Timer(countingEnv{env, h.armed}, token)
}

// TestDeadlineTimersPerNodeNotPerPhase: a node keeps one deadline sweep,
// not one timer per phase. Over hundreds of two-phase rounds, most of
// them finished long before their deadline, it arms a handful of timers.
func TestDeadlineTimersPerNodeNotPerPhase(t *testing.T) {
	const rounds = 240
	net := cluster.New(cluster.WithSeed(71), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))
	armed := 0
	var nodes []*Node
	for i := 0; i < 9; i++ {
		n, err := NewNode(cluster.NodeID(i), Config{Epochs: testEpochs(t, 9, majority9()), Window: 4, OpGap: -1})
		if err != nil {
			t.Fatal(err)
		}
		var h cluster.Handler = n
		if i == 0 {
			h = timerCount{n, &armed}
		}
		if err := net.AddNode(cluster.NodeID(i), h); err != nil {
			t.Fatal(err)
		}
		wakeOn(net, n)
		nodes = append(nodes, n)
	}
	done := 0
	for i := 0; i < rounds; i++ {
		nodes[0].Submit(Op{Kind: OpWrite, Key: "k", Value: "v"}, func(r Result) {
			if r.Err != nil {
				t.Errorf("write failed: %v", r.Err)
			}
			done++
		})
	}
	net.RunAll()
	if done != rounds {
		t.Fatalf("%d of %d writes answered", done, rounds)
	}
	t.Logf("%d two-phase rounds over %v armed %d deadline timers", rounds, net.Now(), armed)
	if armed > 16 {
		t.Fatalf("%d rounds (%d phases) armed %d deadline timers, want a handful", rounds, 2*rounds, armed)
	}
}

// TestSilentMemberRetriedAtDeadline: the sweep retries an attempt at its
// own deadline, Begin + Timeout(rng) — the instant a timer per attempt
// fired at. Every read quorum of maj3(3, 3) holds the crashed node, so
// the first attempt goes unanswered.
func TestSilentMemberRetriedAtDeadline(t *testing.T) {
	s := bootSim(t, 61, 3, maj3(3, 3), func(int) Config { return Config{} })
	s.net.Crash(2)
	n := s.nodes[0]
	p := s.submit(0, Op{Kind: OpRead, Key: "k"})
	for n.Inflight() == 0 {
		if !s.net.Step() {
			t.Fatal("the read never launched")
		}
	}
	var op *opState
	for _, o := range n.inflight {
		op = o
	}
	begin, due := op.tries.Start, op.due
	for op.retries == 0 {
		if p.done || !s.net.Step() {
			t.Fatal("the read finished without a retry")
		}
	}
	if now := s.net.Now(); now != due {
		t.Fatalf("retried at %v, want the attempt's deadline %v", now, due)
	}
	// The instant one timer per attempt retried this read at, before the
	// sweep replaced them: the 300ms patience plus the jitter this seed
	// draws from the node's rng after the read's quorum pick (Gate.Pick's
	// draws, so the instant moves with the majority's pick stream).
	if want := begin + 446967596*time.Nanosecond; due != want {
		t.Fatalf("deadline %v, want %v (the per-attempt timer's instant)", due, want)
	}
}
