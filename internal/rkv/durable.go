package rkv

import (
	"errors"
	"fmt"

	"hquorum/internal/cluster"
	"hquorum/internal/optrace"
	"hquorum/internal/wal"
)

// This file is the disk storage backend: the glue between the replica's
// sharded map and the write-ahead log (package wal). The memory backend
// is every n.wal == nil fast path — byte-for-byte the pre-durability
// behavior.
//
// Ordering contract: a write is applied to the map and appended to the
// log under the same map-shard lock (applyLogged), so any handler that
// observes an entry is ordered after that entry's log append; the commit
// round its ack waits for (ackDurable) therefore covers the record, and
// no ack can reference state the log doesn't yet hold. Checkpoints dump
// each shard under that same lock, making the dumped state a superset of
// every record appended before the checkpoint's rotation — the invariant
// wal.Checkpoint needs to delete older segments safely.

// clockLeaseChunk is how far ahead of the highest stamped counter a
// clock lease reaches. Larger chunks mean fewer lease commits (one per
// chunk of counter advances); the cost of a crash is only a skipped
// counter range, never a reused stamp.
const clockLeaseChunk = 4096

// errStorage reports a client round abandoned because the disk backend
// could not extend the clock lease — without it, stamping fresh
// versions would risk reusing a pre-crash stamp after restart.
var errStorage = errors.New("rkv: storage backend failed to extend clock lease")

// openStorage attaches the configured storage backend to a fresh node.
func (n *Node) openStorage() error {
	switch n.cfg.Storage {
	case "", "memory":
		return nil
	case "disk":
		if n.cfg.DataDir == "" {
			return fmt.Errorf("rkv: disk storage needs DataDir")
		}
		return n.openDisk()
	default:
		return fmt.Errorf("rkv: unknown storage %q (want memory or disk)", n.cfg.Storage)
	}
}

// openDisk opens the WAL under DataDir and replays it into the (empty)
// store: puts re-merge monotonically — replay over the overlapping
// checkpoint and segment history is idempotent — and clock leases raise the
// logical clock past every counter the previous incarnation may have
// stamped.
func (n *Node) openDisk() error {
	l, err := wal.Open(n.cfg.DataDir, wal.Options{
		Shards:        n.store.count(),
		SnapshotEvery: n.cfg.SnapshotEvery,
		NoSync:        n.cfg.WALNoSync,
	})
	if err != nil {
		return err
	}
	n.clock.Store(0)
	n.walLease = 0
	err = l.Replay(func(rec wal.Record) {
		switch rec.Kind {
		case wal.KindPut:
			ver := Version{Counter: rec.Counter, Writer: cluster.NodeID(rec.Writer)}
			n.store.apply(rec.Key, ver, rec.Value)
			n.mergeClock(rec.Counter)
		case wal.KindClock:
			// Jump the clock to the full lease: we cannot know how much
			// of it the crashed process used, so skip the whole range.
			n.mergeClock(rec.Counter)
			if rec.Counter > n.walLease {
				n.walLease = rec.Counter
			}
		}
	})
	if err != nil {
		l.Abandon()
		return err
	}
	l.AutoCheckpoint(n.dumpStore)
	n.wal = l
	return nil
}

// reopenDisk models a process restart inside the simulation: drop the
// in-memory store, abandon the old log handles (unsynced records are
// lost, as a SIGKILL would lose them) and recover from the files.
func (n *Node) reopenDisk() error {
	n.wal.Abandon()
	n.store = newShardedMap(n.cfg.Shards)
	return n.openDisk()
}

// applyPut merges one versioned write into the store, logging the
// change (under the shard lock) when the disk backend is on. It reports
// whether the write may be acknowledged once committed — false only
// when the log rejected the append (sticky I/O failure).
func (n *Node) applyPut(key string, ver Version, val string) bool {
	if n.wal == nil {
		n.store.apply(key, ver, val)
		return true
	}
	ok := true
	n.store.applyLogged(key, ver, val, func() {
		err := n.wal.Append(wal.Record{
			Kind:    wal.KindPut,
			Key:     key,
			Counter: ver.Counter,
			Writer:  uint64(ver.Writer),
			Value:   val,
		})
		if err != nil {
			ok = false
		}
	})
	return ok
}

// detacher is implemented by transport Envs whose deliveries may finish
// after the handler returns: Detach moves the delivery (and its trace
// record) into a fresh Env that one other goroutine may Send through
// later, and done must be called once that goroutine is finished with
// it. Envs without it — the single-goroutine simulator — make the
// handler wait instead.
type detacher interface {
	Detach() (env cluster.Env, done func())
}

// ackDurable sends a replica's write ack once every record appended so
// far — the whole quorum batch, and whatever an observed entry's writer
// appended before us — is durable. On the memory backend that is now.
// On the disk backend the ack is released by whichever commit round
// covers the append, so the delivering goroutine returns to its socket
// at once: the write batches queued behind this one ride the same
// round, and reads never wait behind a flush. A failed round sends
// nothing — the replica stops acknowledging. The delivery's trace
// record (nil when unsampled) gets append→durable as its storage stage,
// which the WAL splits into wal_wait and fsync.
func (n *Node) ackDurable(env cluster.Env, to cluster.NodeID, ack any) {
	if n.wal == nil {
		env.Send(to, ack)
		return
	}
	rec := optrace.From(env)
	rec.Begin(optrace.StageStorage)
	release := func(out cluster.Env, err error) {
		rec.End(optrace.StageStorage)
		if err == nil {
			out.Send(to, ack)
		}
	}
	if d, ok := env.(detacher); ok {
		out, done := d.Detach()
		n.wal.AfterSync(rec, func(err error) {
			release(out, err)
			done()
		})
		return
	}
	release(env, n.wal.Sync())
}

// commitDurable is the blocking form for coordinator-side applies (the
// reconfiguration push, the lease pull and self-keep), which continue
// their state machine on the event goroutine once the local copy is as
// durable as a remote member's acked one.
func (n *Node) commitDurable() bool {
	return n.wal == nil || n.wal.Sync() == nil
}

// dumpStore streams the whole store as WAL put records — the checkpoint
// source — one map shard at a time under that shard's lock.
func (n *Node) dumpStore(emit func(wal.Record)) {
	for i := 0; i < n.store.count(); i++ {
		n.store.withShard(i, func(m map[string]entry) {
			for k, e := range m {
				emit(wal.Record{
					Kind:    wal.KindPut,
					Key:     k,
					Counter: e.ver.Counter,
					Writer:  uint64(e.ver.Writer),
					Value:   e.val,
				})
			}
		})
	}
}

// ensureClockLease guarantees the node may stamp version counters up to
// at least c: a durable lease record promises this node never stamps
// past its lease, so a restarted node (which resumes at the replayed
// lease bound) can never reuse a pre-crash (counter, writer) stamp that
// might survive on remote replicas under a different value. Called on
// the event goroutine before each write phase ships stamped versions.
func (n *Node) ensureClockLease(c uint64) bool {
	if n.wal == nil || c <= n.walLease {
		return true
	}
	lease := c + clockLeaseChunk
	if n.wal.Commit(wal.Record{Kind: wal.KindClock, Counter: lease}) != nil {
		return false
	}
	n.walLease = lease
	return true
}

// Close shuts the storage backend down cleanly: flush and fsync the
// log, write a final checkpoint and the clean-shutdown marker. The
// memory backend is a no-op. Call it only after the node stopped
// serving traffic.
func (n *Node) Close() error {
	if n.wal == nil {
		return nil
	}
	return n.wal.Close(n.dumpStore)
}

// WALStats returns the disk backend's operation counters (zero Stats on
// the memory backend) — how tests assert the one-fsync-per-round group
// commit and how kvd reports recovery progress.
func (n *Node) WALStats() wal.Stats {
	if n.wal == nil {
		return wal.Stats{}
	}
	return n.wal.Stats()
}

// CleanStart reports whether the disk backend found a clean-shutdown
// marker (false on the memory backend).
func (n *Node) CleanStart() bool {
	return n.wal != nil && n.wal.CleanStart()
}
