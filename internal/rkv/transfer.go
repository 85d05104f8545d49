package rkv

// State transfer: the one quorum bracket that moves state between
// quorums. A reconfiguration carries the old configuration's state into
// the new one with it (reconfig.go), and a lease grant makes every
// version its holder could serve locally quorum-replicated with it
// (lease.go). DESIGN.md §13.1 has the safety argument both cite.
//
// A transfer at epoch e over a shard filter:
//
//  1. seeds a merge from the local store;
//  2. asks one read quorum of the source for its store (msgPull, served
//     only at exactly e) and merges the replies, highest version per key;
//  3. applies the merge to the local store, durably;
//  4. writes it (msgWriteBatch at e) to one write quorum of the
//     destination. The node counts itself only when it is in that quorum
//     and its apply was durable; a node whose apply failed waits for an
//     ack it never sends, so the transfer cannot complete without a
//     durable local copy;
//  5. reports done — or failed, with the members that stayed silent
//     through a phase's timeout, or with a pick's error and no silent
//     members when the source or destination held no quorum.
//
// It makes one attempt: what a failure means (re-pick, spread, abort) is
// the caller's. A node runs at most one transfer, because its two callers
// exclude each other: a reconfiguration starts only after its lease sweep
// aborted the holder's grant, and the holder grants nothing while a
// reconfiguration runs.

import (
	"errors"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/lease"
)

// State-transfer wire messages (tags 0x35/0x36, see wire.go).
type (
	// msgPull asks a read-quorum member for its store restricted to the
	// keys whose lease.ShardOf(key, Shards) bit is in Mask — Shards 1 and
	// Mask 1 ask for every key. Served only at exactly Epoch, so every
	// write the member admitted under an older epoch is already applied.
	msgPull struct {
		Epoch  uint64
		Seq    uint64
		Mask   uint64
		Shards int
	}
	// msgPullReply carries the filtered store, sorted by key.
	msgPullReply struct {
		Seq   uint64
		Items []item
	}
)

// tokenTransferDue is a transfer phase's timeout.
type tokenTransferDue struct{ Seq uint64 }

// errTransferSilent reports a transfer phase that timed out.
var errTransferSilent = errors.New("rkv: state transfer: members stayed silent")

// transfer is the node's one state transfer. The caller fills the
// parameters; startTransfer the rest. Zero seq means idle.
type transfer struct {
	epoch  uint64 // pulls are served, and the push stamped, at exactly this epoch
	mask   uint64 // the shard filter, over a shards-wide lease-shard space
	shards int
	// src picks one read quorum of the source, dst one write quorum of
	// the destination; dst is asked only once the pull has completed.
	src, dst func(env cluster.Env) (bitset.Set, error)
	timeout  time.Duration // each phase's
	// done receives the outcome: err nil on success; otherwise silent
	// holds the members a phase timed out on, empty when a pick failed.
	done func(env cluster.Env, silent bitset.Set, err error)

	seq     uint64     // the running phase's frames and timer
	pushing bool       // false while pulling
	pending bitset.Set // members whose reply or ack the phase waits for
	merged  map[string]item
}

// startTransfer runs t, replacing any transfer the node still held.
func (n *Node) startTransfer(env cluster.Env, t transfer) {
	q, err := t.src(env)
	if err != nil {
		n.xfer = transfer{}
		t.done(env, bitset.Set{}, err)
		return
	}
	t.merged = make(map[string]item)
	t.merge(n.store.dump())
	n.xfer = t
	n.seq++
	n.xfer.seq = n.seq
	q.CopyInto(&n.xfer.pending)
	n.xfer.pending.Remove(int(n.id)) // our own store seeded the merge
	msg := msgPull{Epoch: t.epoch, Seq: n.seq, Mask: t.mask, Shards: t.shards}
	n.xfer.pending.ForEach(func(m int) { env.Send(cluster.NodeID(m), msg) })
	n.transferWait(env)
}

// merge folds items that pass the filter into the merge, highest version
// per key.
func (t *transfer) merge(items []item) {
	for _, it := range items {
		if t.mask&lease.Bit(lease.ShardOf(it.Key, t.shards)) == 0 {
			continue
		}
		if cur, ok := t.merged[it.Key]; !ok || cur.Ver.Less(it.Ver) {
			t.merged[it.Key] = it
		}
	}
}

// transferWait arms the running phase's timer, or ends the phase at once
// when it waits for nobody.
func (n *Node) transferWait(env cluster.Env) {
	switch {
	case !n.xfer.pending.Empty():
		env.After(n.xfer.timeout, tokenTransferDue{Seq: n.xfer.seq})
	case n.xfer.pushing:
		n.transferEnd(env, bitset.Set{}, nil)
	default:
		n.transferPush(env)
	}
}

// transferPush applies the completed merge locally and writes it to a
// write quorum of the destination. An empty merge has nothing to move.
func (n *Node) transferPush(env cluster.Env) {
	t := &n.xfer
	items := make([]item, 0, len(t.merged))
	for _, it := range t.merged {
		items = append(items, it)
	}
	t.merged = nil
	if len(items) == 0 {
		n.transferEnd(env, bitset.Set{}, nil)
		return
	}
	sortItems(items)
	var maxC uint64
	durable := true
	for _, it := range items {
		maxC = max(maxC, it.Ver.Counter)
		durable = n.applyPut(it.Key, it.Ver, it.Val) && durable
	}
	n.mergeClock(maxC)
	durable = durable && n.commitDurable()
	q, err := t.dst(env)
	if err != nil {
		n.transferEnd(env, bitset.Set{}, err)
		return
	}
	n.seq++
	t.seq, t.pushing = n.seq, true
	q.CopyInto(&t.pending)
	if durable {
		t.pending.Remove(int(n.id))
	} else {
		t.pending.Add(int(n.id))
	}
	msg := msgWriteBatch{Epoch: t.epoch, Seq: t.seq, Items: items}
	t.pending.ForEach(func(m int) {
		if cluster.NodeID(m) != n.id {
			env.Send(cluster.NodeID(m), msg)
		}
	})
	n.transferWait(env)
}

// transferEnd retires the transfer and reports its outcome.
func (n *Node) transferEnd(env cluster.Env, silent bitset.Set, err error) {
	done := n.xfer.done
	n.xfer = transfer{}
	done(env, silent, err)
}

// transferAnswered takes one member's answer to the running phase:
// ours reports whether seq names that phase (pushing says which one it
// must be), counted whether from was one of the members it waited for.
func (n *Node) transferAnswered(from cluster.NodeID, seq uint64, pushing bool) (ours, counted bool) {
	t := &n.xfer
	if t.seq == 0 || seq != t.seq || t.pushing != pushing {
		return false, false
	}
	if int(from) < 0 || int(from) >= t.pending.Cap() || !t.pending.Contains(int(from)) {
		return true, false
	}
	t.pending.Remove(int(from))
	return true, true
}

// onPullReply merges one source member's store; the last one starts the
// push.
func (n *Node) onPullReply(env cluster.Env, from cluster.NodeID, m msgPullReply) {
	if _, counted := n.transferAnswered(from, m.Seq, false); counted {
		n.xfer.merge(m.Items)
		if n.xfer.pending.Empty() {
			n.transferPush(env)
		}
	}
}

// transferOnWriteAck consumes a write ack addressed to the push; reports
// whether it was the transfer's (op acks are not).
func (n *Node) transferOnWriteAck(env cluster.Env, from cluster.NodeID, seq uint64) bool {
	ours, counted := n.transferAnswered(from, seq, true)
	if counted && n.xfer.pending.Empty() {
		n.transferEnd(env, bitset.Set{}, nil)
	}
	return ours
}

// onTransferDue fails a phase that timed out, naming who stayed silent.
func (n *Node) onTransferDue(env cluster.Env, seq uint64) {
	if n.xfer.seq == 0 || seq != n.xfer.seq {
		return
	}
	n.transferEnd(env, n.xfer.pending, errTransferSilent)
}

// onPull serves a source member's half of a transfer on the replica fast
// path: store-only, epoch-gated, filtered down to the requested shards.
// Shards is outside input, so its range is checked before it sizes
// anything.
func (n *Node) onPull(env cluster.Env, from cluster.NodeID, m msgPull) {
	if m.Shards < 1 || m.Shards > lease.MaxShards {
		return
	}
	n.gate(env, from, m.Epoch, m.Seq, func() {
		items := n.store.dump()
		kept := items[:0]
		for _, it := range items {
			if m.Mask&lease.Bit(lease.ShardOf(it.Key, m.Shards)) != 0 {
				kept = append(kept, it)
			}
		}
		env.Send(from, msgPullReply{Seq: m.Seq, Items: kept})
	})
}
