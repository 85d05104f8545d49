package rkv

// Read-lease glue: drives internal/lease's state machines over the rkv
// wire. The division of labor:
//
//   - Member side (every node, always on): a lease.Table recording which
//     holder may serve which shards until when. Grants/renewals are
//     acked only when nothing conflicts (joint config, an active
//     reconfiguration, an overlapping live entry — leases are exclusive
//     per shard — or an in-flight write this node coordinates). Before
//     any write phase this node coordinates may ship, every table entry
//     overlapping the batch must be invalidated (phaseInval) or expire.
//   - Holder side (Config.Lease.Acquire): a policy tick reads the
//     workload profiler; on a read-heavy window it grants missing shards
//     or renews near the deadline, on a write-heavy one it lets the
//     lease lapse. A grant runs wave→pull→push→activate: every current
//     member must ack (so every future writer's table blocks), then the
//     shard state is pulled from a read quorum, merged with the local
//     store, and pushed to a write quorum — after which every version
//     the holder can serve locally is quorum-replicated, so no later
//     quorum read can run behind a local read. While the lease covers
//     a key the local store answers for it: queued reads are served at
//     admission (launchNext) with zero messages, and a write takes its
//     version from the local store instead of a phase-1 quorum round;
//     the holder's own completed writes are applied locally (self-keep)
//     instead of invalidating its own lease.
//
// Epoch fences: grants are epoch-gated and refused while the config is
// joint or a reconfiguration is active; activation re-checks the epoch;
// a reconfiguration coordinator runs a lease sweep (reconfig.go) that
// invalidates every known lease before the joint config is installed,
// so members joining at the new epoch can never miss an old lease.
// DESIGN.md §17 has the full safety argument.

import (
	"time"

	"hquorum/internal/attempt"
	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/lease"
	"hquorum/internal/optrace"
)

// Lease wire messages (tags 0x31-0x37 in the 0x30 overflow block).
type (
	// msgLeaseGrant asks every current member to record a lease: holder
	// `from` serves Mask (over a Shards-wide space) for TTLus. Epoch-
	// gated: a grant is only meaningful under the config it names.
	msgLeaseGrant struct {
		Epoch  uint64
		Seq    uint64
		Mask   uint64
		Shards int
		TTLus  uint64
	}
	// msgLeaseRenew extends an existing entry (same checks as a grant;
	// a member that lost the entry treats it as a fresh grant).
	msgLeaseRenew struct {
		Epoch  uint64
		Seq    uint64
		Mask   uint64
		Shards int
		TTLus  uint64
	}
	// msgLeaseInval orders a holder to stop serving Mask's shards NOW.
	// Deliberately not epoch-gated: a writer (or sweep) must be able to
	// kill a lease granted under any epoch.
	msgLeaseInval struct {
		Seq  uint64
		Mask uint64
	}
	// msgLeaseAck answers grant/renew (holder consumes) and inval
	// (writer consumes); Kind routes it.
	msgLeaseAck struct {
		Seq  uint64
		Kind uint8
		OK   bool
	}
	// msgLeasePull asks a read-quorum member for its store state
	// restricted to Mask's shards (the grant freshness pull).
	msgLeasePull struct {
		Epoch  uint64
		Seq    uint64
		Mask   uint64
		Shards int
	}
	// msgLeasePullReply carries the filtered dump, parallel slices.
	msgLeasePullReply struct {
		Seq  uint64
		Keys []string
		Vers []Version
		Vals []string
	}
	// msgLeaseDrop tells members the holder released Mask's shards
	// (best-effort cleanup; entries expire on their own anyway).
	msgLeaseDrop struct {
		Seq  uint64
		Mask uint64
	}
)

const (
	tagLeaseGrant     = 0x31
	tagLeaseRenew     = 0x32
	tagLeaseInval     = 0x33
	tagLeaseAck       = 0x34
	tagLeasePull      = 0x35
	tagLeasePullReply = 0x36
	tagLeaseDrop      = 0x37
)

// msgLeaseAck kinds.
const (
	leaseKindGrant uint8 = iota
	leaseKindRenew
	leaseKindInval
)

// Lease timer tokens: the holder policy tick and the wave timeout.
type (
	tokenLeaseTick struct{}
	tokenLeaseDue  struct{ Seq uint64 }
)

// LeaseToken returns the timer token that starts (and keeps) the node's
// lease policy loop — delivered automatically by Start on a
// cluster.Network, or via a transport Kick on live deployments.
func LeaseToken() any { return tokenLeaseTick{} }

// LeaseStats are the node's lease counters (atomics: safe to read from
// the metrics endpoint off the event loop).
type LeaseStats struct {
	Grants      uint64 // lease activations (grant waves completed)
	Renewals    uint64 // renewal waves completed
	LocalReads  uint64 // reads served from the local store, zero messages
	InvalRounds uint64 // write rounds that had to run an invalidation phase
	Expiries    uint64 // holder-side lease expiries (deadline passed)
	// LocalVersions counts writes whose version round (phase 1) was
	// answered by the local store: one quorum round instead of two.
	LocalVersions uint64
}

// LeaseStats returns the node's lease counters.
func (n *Node) LeaseStats() LeaseStats {
	return LeaseStats{
		Grants:        n.leaseGrants.Load(),
		Renewals:      n.leaseRenewals.Load(),
		LocalReads:    n.leaseLocalReads.Load(),
		InvalRounds:   n.leaseInvalRounds.Load(),
		Expiries:      n.leaseExpiries.Load(),
		LocalVersions: n.leaseLocalVersions.Load(),
	}
}

// LeasedRead reports whether this node currently holds an active read
// lease covering key — a lock-free routing hint for gateways choosing
// a session. It may lag the event loop by up to one policy tick; a
// wrong hint costs one quorum round, never a stale read (the serve
// path re-checks epoch and expiry inside the event loop).
func (n *Node) LeasedRead(key string) bool {
	m := n.leaseRouteMask.Load()
	if m == 0 {
		return false
	}
	return m&lease.Bit(lease.ShardOf(key, n.leaseShards)) != 0
}

// leasePublish refreshes the routing hint from the holder's live mask.
// Called wherever the mask can change, plus every policy tick, so any
// missed transition self-heals within one Check period.
func (n *Node) leasePublish() {
	if n.lh != nil {
		n.leaseRouteMask.Store(n.lh.Active())
	}
}

// leaseMembers returns the nodes that must record a grant: every node
// in the cluster's ID space, excluding self. The wave deliberately
// covers more than the quorum members — non-member coordinators
// (gateway sessions, spare replicas awaiting a growth reconfiguration)
// coordinate writes too, and a coordinator that never saw the grant
// would skip the invalidation barrier. The price is availability, not
// safety: a dark node anywhere in the space makes grants time out until
// it returns, and reads simply fall back to quorum rounds.
func (n *Node) leaseMembers() []cluster.NodeID {
	u := n.cfg.Epochs.Universe()
	out := make([]cluster.NodeID, 0, u-1)
	for i := 0; i < u; i++ {
		if cluster.NodeID(i) != n.id {
			out = append(out, cluster.NodeID(i))
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Member side
// ---------------------------------------------------------------------

// onLeaseRequest serves a grant or renewal: record the entry and ack,
// or nack when anything conflicts. Event-loop only (reads rc, inflight,
// the table and the holder).
func (n *Node) onLeaseRequest(env cluster.Env, from cluster.NodeID, ep, seq, mask uint64, shards int, ttlUs uint64, renew bool) {
	if shards < 1 || shards > lease.MaxShards || mask == 0 ||
		mask&^lease.MaskAll(shards) != 0 ||
		ttlUs == 0 || ttlUs > uint64(time.Hour/time.Microsecond) {
		return // hostile frame
	}
	kind := leaseKindGrant
	if renew {
		kind = leaseKindRenew
	}
	snap := n.cfg.Epochs.Snapshot()
	if snap.Epoch != ep {
		// Same catch-up traffic as the op gate, so a stale holder
		// installs the new config (and its epoch fence) promptly.
		if snap.Epoch > ep {
			env.Send(from, msgStaleEpoch{Seq: seq, Cfg: snap.Encode(nil)})
		} else {
			env.Send(from, msgConfigReq{Epoch: snap.Epoch})
		}
		return
	}
	if snap.Joint() {
		env.Send(from, msgLeaseAck{Seq: seq, Kind: kind, OK: false})
		return
	}
	ok := n.leaseGrantOK(env, from, mask, shards)
	if ok {
		ttl := time.Duration(ttlUs) * time.Microsecond
		exp := env.Now() + ttl + lease.Slack(ttl)
		n.lt.Record(from, lease.Entry{Seq: seq, Epoch: ep, Mask: mask, Shards: shards, Expiry: exp}, env.Now())
		if exp > n.leaseMaxExpiry {
			n.leaseMaxExpiry = exp
		}
	}
	env.Send(from, msgLeaseAck{Seq: seq, Kind: kind, OK: ok})
}

// leaseGrantOK applies the member-side conflict rules.
func (n *Node) leaseGrantOK(env cluster.Env, from cluster.NodeID, mask uint64, shards int) bool {
	// An active reconfiguration (including its lease sweep) freezes
	// grants: the all-ack requirement means our nack blocks the wave.
	if n.rc.phase != rcIdle {
		return false
	}
	now := env.Now()
	// Leases are exclusive per shard: any other holder's live entry
	// overlapping the request nacks it. A different shard-space width
	// conservatively counts as full overlap.
	for _, h := range n.lt.Holders() {
		if h == from {
			continue
		}
		e, _ := n.lt.Get(h)
		if now >= e.Expiry {
			continue
		}
		if e.Shards != shards || e.Mask&mask != 0 {
			return false
		}
	}
	// Our own holder counts toward exclusivity too (we keep no self
	// entry), including a wave still in flight.
	if n.lh != nil {
		if own := n.lh.Active() | n.lh.Mask(); own != 0 {
			if n.lh.Config().Shards != shards || own&mask != 0 {
				return false
			}
		}
	}
	// In-flight writes this node coordinates: a round already in its
	// write phase never re-consults the table, so it must nack an
	// overlapping grant; one in its invalidation phase re-checks the
	// barrier before shipping, but nacks too — granting a lease the
	// round would immediately invalidate helps nobody. (Map iteration
	// order is irrelevant: this computes a pure any-overlap boolean.)
	for _, op := range n.inflight {
		if op.ph != phaseWrite && op.ph != phaseInval {
			continue
		}
		for _, k := range op.p2Keys {
			if mask&lease.Bit(lease.ShardOf(k, shards)) != 0 {
				return false
			}
		}
	}
	return true
}

// onLeaseDrop clears the holder's released shards from the table. The
// clear is seq-gated: the holder allocates drops and grants from the
// same monotonic counter, so a reordered drop sent before the recorded
// grant carries a smaller Seq and must not erase the newer entry's bits
// — that would let a writer skip the invalidation barrier on a live
// lease. Ignoring a stale drop merely leaves an over-approximation that
// invalidation or expiry cleans up.
func (n *Node) onLeaseDrop(from cluster.NodeID, m msgLeaseDrop) {
	if e, ok := n.lt.Get(from); !ok || m.Seq < e.Seq {
		return
	}
	n.lt.ClearBits(from, m.Mask)
}

// onLeasePullServe answers a freshness pull on the replica fast path:
// epoch-gated, store-only (thread-safe), the same shape as a snapshot
// request but filtered down to the leased shards.
func (n *Node) onLeasePullServe(env cluster.Env, from cluster.NodeID, m msgLeasePull) {
	if m.Shards < 1 || m.Shards > lease.MaxShards {
		return
	}
	n.gate(env, from, m.Epoch, m.Seq, func() {
		keys, vers, vals := n.store.dump()
		var fk []string
		var fver []Version
		var fval []string
		for i, k := range keys {
			if m.Mask&lease.Bit(lease.ShardOf(k, m.Shards)) == 0 {
				continue
			}
			fk = append(fk, k)
			fver = append(fver, vers[i])
			fval = append(fval, vals[i])
		}
		env.Send(from, msgLeasePullReply{Seq: m.Seq, Keys: fk, Vers: fver, Vals: fval})
	})
}

// ---------------------------------------------------------------------
// Write barrier
// ---------------------------------------------------------------------

// enterWritePhase is the leased write barrier: before any phase-2
// payload ships, every table entry overlapping it must be invalidated
// (or expire), and a node that lost its member table sits out its
// quarantine. With no obligations it is exactly startWritePhase.
func (n *Node) enterWritePhase(env cluster.Env, op *opState) {
	if n.startInvalPhase(env, op) {
		return
	}
	n.startWritePhase(env, op)
}

// startInvalPhase computes the batch's invalidation targets and, when
// any exist (or the quarantine is still running), enters phaseInval:
// op.pending holds the holders whose acks the write waits for. Called
// again on every retry — targets are recomputed from the live table, so
// expired entries stop blocking and the round proceeds. Reports whether
// the phase was entered.
func (n *Node) startInvalPhase(env cluster.Env, op *opState) bool {
	now := env.Now()
	quarantined := now < n.leaseBlockedUntil
	targets, masks := n.lt.Overlapping(op.p2Keys, now)
	if len(targets) == 0 && !quarantined {
		return false
	}
	first := op.ph != phaseInval
	n.rekey(op)
	op.ph = phaseInval
	op.quorum.Clear()
	op.pending.Clear()
	for i, h := range targets {
		op.quorum.Add(int(h))
		op.pending.Add(int(h))
		env.Send(h, msgLeaseInval{Seq: op.seq, Mask: masks[i]})
	}
	if first {
		n.leaseInvalRounds.Add(1)
		// The lease stage spans the whole invalidation barrier: first
		// entry to the write phase shipping (startWritePhase Ends it).
		op.rec.Begin(optrace.StageLease)
	}
	if len(targets) == 0 {
		// Quarantine-only wait: no ack can unblock it, so backoff retries
		// would fire at times unrelated to the quarantine. Resume exactly
		// when it lifts, clamped so the op still fails at its deadline.
		env.After(op.tries.Clamp(n.leaseBlockedUntil-now, now), tokenOpDue{Seq: op.seq})
		return true
	}
	env.After(op.tries.Timeout(env.Rand(), now), tokenOpDue{Seq: op.seq})
	return true
}

// leaseWritebackOwed reports whether a read of key must ship its
// write-back even though its quorum confirmed the version (readConfirmed):
// the write phase is where a round meets the leases, and a version can
// reach a write quorum behind a lease's back — a dead coordinator's
// phase-2 frames landing after the grant's pull — so the first reader to
// return it must do what the write-back does. That is the invalidation
// barrier when the key is under another holder's entry or the quarantine
// runs, and finishRound's self-keep when this node leases the shard or is
// acquiring it (the local store must not fall behind a value this node
// returned).
func (n *Node) leaseWritebackOwed(env cluster.Env, key string) bool {
	now := env.Now()
	if now < n.leaseBlockedUntil {
		return true
	}
	if holders, _ := n.lt.Overlapping([]string{key}, now); len(holders) > 0 {
		return true
	}
	lh := n.lh
	return lh != nil && lh.SelfKeepOK(lease.ShardOf(key, lh.Config().Shards))
}

// leaseOnInvalAck consumes a holder's invalidation ack for an op round.
func (n *Node) leaseOnInvalAck(env cluster.Env, from cluster.NodeID, seq uint64) {
	op, ok := n.inflight[seq]
	if !ok || op.ph != phaseInval || !op.pending.Contains(int(from)) {
		return
	}
	op.pending.Remove(int(from))
	// The holder no longer serves the shards we asked it to drop: clear
	// them from our table so later rounds don't re-invalidate.
	if e, have := n.lt.Get(from); have {
		n.lt.ClearBits(from, e.Mask&lease.KeysMask(op.p2Keys, e.Shards))
	}
	if op.pending.Empty() {
		// Re-enter the full barrier rather than shipping the write: the
		// quarantine may still be running (a restart that lost the member
		// table), and an unknown pre-crash leaseholder could be serving
		// stale local reads until it provably expired. startInvalPhase
		// recomputes both conditions, exactly like the retry and
		// stale-epoch paths.
		n.enterWritePhase(env, op)
	}
}

// ---------------------------------------------------------------------
// Holder side
// ---------------------------------------------------------------------

// onLeaseInval stops serving the named shards immediately and acks so
// the writer can proceed. Always acked — a node that holds nothing (or
// never acquires) just confirms there is nothing to stop.
func (n *Node) onLeaseInval(env cluster.Env, from cluster.NodeID, m msgLeaseInval) {
	if n.lh != nil {
		if cleared := n.lh.Invalidate(m.Mask, env.Now()); cleared != 0 {
			n.leaseBroadcastDrop(env, cleared)
		}
		n.leasePublish()
	}
	env.Send(from, msgLeaseAck{Seq: m.Seq, Kind: leaseKindInval, OK: true})
}

// onLeaseAck routes an ack: invalidation acks feed the reconfiguration
// sweep or the op round that sent them; grant/renew acks feed the
// holder wave.
func (n *Node) onLeaseAck(env cluster.Env, from cluster.NodeID, m msgLeaseAck) {
	if m.Kind == leaseKindInval {
		if n.rcOnLeaseSweepAck(env, from, m.Seq) {
			return
		}
		n.leaseOnInvalAck(env, from, m.Seq)
		return
	}
	if n.lh == nil {
		return
	}
	switch n.lh.OnAck(from, m.Seq, m.OK, env.Now()) {
	case lease.AckDone:
		if n.lh.Renewing() {
			n.lh.CompleteRenew()
			n.leaseRenewals.Add(1)
			return
		}
		n.leaseStartPull(env)
	case lease.AckFailed:
		n.leaseMerged = nil
	}
}

// onLeaseTick is the holder policy loop: expire, fence, then decide
// grant/renew/lapse from the workload window. Re-arms itself forever —
// harmless under the simulator (drains check node.Done(), not timer
// emptiness) and cheap on live transports.
func (n *Node) onLeaseTick(env cluster.Env) {
	lh := n.lh
	if lh == nil {
		return
	}
	lcfg := lh.Config()
	defer env.After(lcfg.Check, tokenLeaseTick{})
	defer n.leasePublish()
	now := env.Now()
	if expired := lh.ExpireTick(now); expired != 0 {
		n.leaseExpiries.Add(1)
		n.leaseBroadcastDrop(env, expired)
	}
	if !lh.Idle() {
		return // one wave at a time; a timeout aborts it
	}
	ep := n.epochNow()
	if lh.Active() != 0 && lh.Epoch() != ep {
		// Epoch fence: a lease from a previous config never serves under
		// the new one.
		if mask := lh.DropAll(now); mask != 0 {
			n.leaseBroadcastDrop(env, mask)
		}
	}
	if !n.profile.Snapshot(now).ReadHeavy(lcfg.MinOps, lcfg.MinReadFrac) {
		// Write-heavy window: holding leases just taxes every writer
		// with an invalidation round. Let go.
		if mask := lh.DropAll(now); mask != 0 {
			n.leaseBroadcastDrop(env, mask)
		}
		return
	}
	if n.rc.phase != rcIdle {
		return
	}
	if n.cfg.Epochs.Snapshot().Joint() {
		return
	}
	if lh.NeedRenew(now) && lh.Active() != 0 {
		n.leaseStartWave(env, true, lh.Active())
		return
	}
	// Grant what we don't hold, minus shards covered by other holders'
	// live entries (their members would nack us anyway).
	if missing := lh.Missing(now) &^ n.lt.Covered(lcfg.Shards, now); missing != 0 {
		n.leaseStartWave(env, false, missing)
	}
}

// leaseStartWave sends a grant or renew wave to every current member.
func (n *Node) leaseStartWave(env cluster.Env, renew bool, mask uint64) {
	lh := n.lh
	members := n.leaseMembers()
	n.seq++
	lh.BeginWave(renew, n.seq, mask, members, env.Now(), n.epochNow())
	lcfg := lh.Config()
	ttlUs := uint64(lcfg.TTL / time.Microsecond)
	for _, id := range members {
		if renew {
			env.Send(id, msgLeaseRenew{Epoch: lh.WaveEpoch(), Seq: n.seq, Mask: mask, Shards: lcfg.Shards, TTLus: ttlUs})
		} else {
			env.Send(id, msgLeaseGrant{Epoch: lh.WaveEpoch(), Seq: n.seq, Mask: mask, Shards: lcfg.Shards, TTLus: ttlUs})
		}
	}
	if len(members) == 0 {
		// Single-member config: trivially all-acked.
		if renew {
			lh.CompleteRenew()
			n.leaseRenewals.Add(1)
			return
		}
		n.leaseStartPull(env)
		return
	}
	env.After(n.cfg.Timeout, tokenLeaseDue{Seq: n.seq})
}

// leasePick draws one quorum of the given flavor among trusted
// replicas, falling back to the full universe — the pick-cache is
// deliberately bypassed (lease waves are rare; ops own the cache), and a
// fallback neither clears suspicions nor touches the cache.
func (n *Node) leasePick(env cluster.Env, read bool) (bitset.Set, error) {
	n.suspects.Decay(env.Now())
	q, _, err := n.suspects.Pick(func(live bitset.Set) (bitset.Set, error) { return n.pick(env, read, live) })
	return q, err
}

// leaseStartPull pulls the leased shards' state from a read quorum.
// The local store seeds the merge: the push must cover everything the
// holder could serve, including versions only this replica has.
func (n *Node) leaseStartPull(env cluster.Env) {
	lh := n.lh
	now := env.Now()
	if lh.Mask() == 0 {
		lh.Abort(now)
		return
	}
	q, err := n.leasePick(env, true)
	if err != nil {
		lh.Abort(now)
		return
	}
	mask, shards := lh.Mask(), lh.Config().Shards
	n.leaseMerged = make(map[string]mergedVal)
	keys, vers, vals := n.store.dump()
	for i, k := range keys {
		if mask&lease.Bit(lease.ShardOf(k, shards)) != 0 {
			n.leaseMergeVal(k, vers[i], vals[i])
		}
	}
	var members []cluster.NodeID
	q.ForEach(func(m int) {
		if cluster.NodeID(m) != n.id {
			members = append(members, cluster.NodeID(m))
		}
	})
	n.seq++
	lh.BeginPull(n.seq, members)
	if len(members) == 0 {
		n.leaseFinishPull(env)
		return
	}
	msg := msgLeasePull{Epoch: lh.WaveEpoch(), Seq: n.seq, Mask: mask, Shards: shards}
	for _, id := range members {
		env.Send(id, msg)
	}
	env.After(n.cfg.Timeout, tokenLeaseDue{Seq: n.seq})
}

func (n *Node) leaseMergeVal(k string, ver Version, val string) {
	if cur, ok := n.leaseMerged[k]; !ok || cur.ver.Less(ver) {
		n.leaseMerged[k] = mergedVal{ver: ver, val: val}
	}
}

// onLeasePullReply merges one member's shard state; when the quorum is
// complete, apply the merge locally and push it.
func (n *Node) onLeasePullReply(env cluster.Env, from cluster.NodeID, m msgLeasePullReply) {
	if n.lh == nil {
		return
	}
	if len(m.Vers) != len(m.Keys) || len(m.Vals) != len(m.Keys) {
		return // malformed: the wave timer aborts and the tick retries
	}
	counted, done := n.lh.OnPullReply(from, m.Seq)
	if !counted {
		return
	}
	for i, k := range m.Keys {
		n.leaseMergeVal(k, m.Vers[i], m.Vals[i])
	}
	if done {
		n.leaseFinishPull(env)
	}
}

// leaseFinishPull applies the merged read-quorum state to the local
// store, then pushes it to a write quorum. Only after that push is
// every locally servable version quorum-replicated — the property that
// keeps a local read from ever running ahead of (or behind) the quorum
// path; see DESIGN.md §17.
func (n *Node) leaseFinishPull(env cluster.Env) {
	lh := n.lh
	now := env.Now()
	if lh.Mask() == 0 {
		lh.Abort(now)
		n.leaseMerged = nil
		return
	}
	var maxC uint64
	ok := true
	keys, vers, vals := rcMergedSlices(n.leaseMerged)
	for i, k := range keys {
		if vers[i].Counter > maxC {
			maxC = vers[i].Counter
		}
		ok = n.applyPut(k, vers[i], vals[i]) && ok
	}
	n.mergeClock(maxC)
	if !ok || !n.commitDurable() {
		lh.Abort(now)
		n.leaseMerged = nil
		return
	}
	if len(keys) == 0 {
		n.leaseActivate(env)
		return
	}
	q, err := n.leasePick(env, false)
	if err != nil {
		lh.Abort(now)
		n.leaseMerged = nil
		return
	}
	var members []cluster.NodeID
	q.ForEach(func(m int) {
		if cluster.NodeID(m) != n.id {
			members = append(members, cluster.NodeID(m))
		}
	})
	n.seq++
	lh.BeginPush(n.seq, members)
	if len(members) == 0 {
		n.leaseActivate(env)
		return
	}
	msg := msgWriteBatch{Epoch: lh.WaveEpoch(), Seq: n.seq, Keys: keys, Vers: vers, Vals: vals}
	for _, id := range members {
		env.Send(id, msg)
	}
	env.After(n.cfg.Timeout, tokenLeaseDue{Seq: n.seq})
}

// leaseOnWriteAck consumes write acks addressed to the freshness push;
// reports whether the ack belonged to the lease machinery.
func (n *Node) leaseOnWriteAck(env cluster.Env, from cluster.NodeID, m msgWriteAck) bool {
	if n.lh == nil {
		return false
	}
	counted, done := n.lh.OnPushAck(from, m.Seq)
	if !counted {
		return false
	}
	if done {
		n.leaseActivate(env)
	}
	return true
}

// leaseActivate completes the grant (unless the epoch moved mid-wave).
func (n *Node) leaseActivate(env cluster.Env) {
	n.leaseMerged = nil
	if n.lh.Activate(env.Now(), n.epochNow()) {
		n.leaseGrants.Add(1)
	}
	n.leasePublish()
}

// onLeaseDue aborts a wave (grant, renew, pull or push) that timed out.
func (n *Node) onLeaseDue(env cluster.Env, seq uint64) {
	if n.lh == nil || n.lh.Idle() || n.lh.Seq() != seq {
		return
	}
	n.lh.Abort(env.Now())
	n.leaseMerged = nil
}

// leaseBroadcastDrop tells every member the holder released mask.
func (n *Node) leaseBroadcastDrop(env cluster.Env, mask uint64) {
	n.seq++
	msg := msgLeaseDrop{Seq: n.seq, Mask: mask}
	for _, id := range n.leaseMembers() {
		env.Send(id, msg)
	}
}

// ---------------------------------------------------------------------
// Read path and self-keep
// ---------------------------------------------------------------------

// leaseCover is the one "the lease covers this key right now" test:
// local reads, local version reads and admission all decide by it, so
// the expiry and epoch rules (lease.Holder.ServeOK) have no second copy.
type leaseCover struct {
	lh     *lease.Holder
	ep     uint64
	now    time.Duration
	shards int
}

// leaseCoverNow snapshots the coverage test for this instant; ok is
// false when the node holds nothing (no holder, or no active shard).
func (n *Node) leaseCoverNow(env cluster.Env) (c leaseCover, ok bool) {
	lh := n.lh
	if lh == nil || lh.Active() == 0 {
		return c, false
	}
	return leaseCover{lh: lh, ep: n.epochNow(), now: env.Now(), shards: lh.Config().Shards}, true
}

func (c leaseCover) covers(key string) bool {
	return c.lh.ServeOK(lease.ShardOf(key, c.shards), c.ep, c.now)
}

// leaseServeRead answers one covered read from the local store.
func (n *Node) leaseServeRead(env cluster.Env, op *opState, sub *subOp) {
	sub.bestVer, sub.bestVal = n.store.get(sub.key)
	n.leaseLocalReads.Add(1)
	n.reportSub(env, op, sub, nil)
}

// leaseServeLocal lets the local store answer for the batch's keys on
// actively leased shards: reads complete right here with zero messages,
// and a write takes its phase-1 answer — a version at least as high as
// any completed operation's — from the local store, so a batch whose
// writes are all covered goes straight to its write phase. The local
// version qualifies for the reason a local read is linearizable
// (DESIGN.md §17 point 3); this node's own in-flight writes, not
// self-kept yet, were stamped from its monotonic clock, which
// buildPhase2's nextClock() is above. Runs in launchBatch before the
// phase-1 membership is computed.
func (n *Node) leaseServeLocal(env cluster.Env, op *opState) {
	cov, ok := n.leaseCoverNow(env)
	if !ok {
		return
	}
	for i := range op.subs {
		sub := &op.subs[i]
		if sub.done || !sub.needP1 || !cov.covers(sub.key) {
			continue
		}
		if sub.kind == OpRead {
			n.leaseServeRead(env, op, sub)
			continue
		}
		sub.bestVer, _ = n.store.get(sub.key)
		sub.needP1 = false
		n.leaseLocalVersions.Add(1)
	}
}

// leaseAdmit answers every queued read the lease covers at
// admission, ahead of the window test: a zero-message read runs no
// round, so it must not wait for one of the Window places the writes'
// rounds occupy. What remains keeps its order and launches as before.
// No round ran, so the profiler's batch counter is not told; the sweep
// is trace-sampled once, as launchBatch samples a round.
func (n *Node) leaseAdmit(env cluster.Env) {
	cov, ok := n.leaseCoverNow(env)
	if !ok {
		return
	}
	op := opState{tries: attempt.Op{Start: cov.now}}
	var rec *optrace.Rec
	served := 0
	kept := n.extRun[:0]
	for _, e := range n.extRun {
		if e.op.Kind != OpRead || !cov.covers(e.op.Key) {
			kept = append(kept, e)
			continue
		}
		if served == 0 {
			rec = n.trace.Sample()
			rec.Begin(optrace.StageQuorum)
		}
		served++
		sub := subOp{kind: OpRead, key: e.op.Key, cb: e.cb}
		n.leaseServeRead(env, &op, &sub)
	}
	clear(n.extRun[len(kept):]) // drop the served callbacks' references
	n.extRun = kept
	rec.Tag(optrace.KindRead, served, cov.ep)
	rec.Done()
}

// leaseSelfKeep applies what the round's write phase just installed on a
// write quorum — its writes, and the versions its reads wrote back — to
// the local store, for shards this node leases or is acquiring: the
// holder's own rounds keep the lease serving fresh data instead of
// invalidating it, and one that completes while a grant is between pull
// and activation is not lost to the store local reads start from. Runs
// in finishRound — before results are reported, and never for failed
// rounds (a maybe-write must not become locally readable). An apply or
// commit failure conservatively drops the affected shards.
func (n *Node) leaseSelfKeep(env cluster.Env, op *opState) {
	lh := n.lh
	if lh == nil || lh.Active()|lh.Mask() == 0 {
		return
	}
	shards := lh.Config().Shards
	var applied, failed uint64
	for i, key := range op.p2Keys {
		s := lease.ShardOf(key, shards)
		if !lh.SelfKeepOK(s) {
			continue
		}
		if n.applyPut(key, op.p2Vers[i], op.p2Vals[i]) {
			applied |= lease.Bit(s)
		} else {
			failed |= lease.Bit(s)
		}
	}
	if applied != 0 && !n.commitDurable() {
		failed |= applied
	}
	if failed != 0 {
		if cleared := lh.Invalidate(failed, env.Now()); cleared != 0 {
			n.leaseBroadcastDrop(env, cleared)
		}
		n.leasePublish()
	}
}

// leaseRestarted models a crash-restart: the holder never survives; the
// member table survives exactly as far as the replica store does — with
// it on the memory backend (ideal stable state), lost with the process
// image on the disk backend, which forces the write quarantine until
// every entry this node might have recorded has provably expired.
func (n *Node) leaseRestarted(env cluster.Env) {
	n.leaseMerged = nil
	if n.lh != nil {
		n.lh.Reset()
		n.leasePublish()
		env.After(n.lh.Config().Check, tokenLeaseTick{})
	}
	if n.wal != nil {
		n.lt.Reset()
		if n.leaseMaxExpiry > n.leaseBlockedUntil {
			n.leaseBlockedUntil = n.leaseMaxExpiry
		}
	}
}

// ---------------------------------------------------------------------
// Wire registration
// ---------------------------------------------------------------------

// registerLeaseWire registers the lease codecs (tags 0x31-0x37), called
// from RegisterBinaryWire.
func registerLeaseWire(reg *codec.Registry) {
	grantBody := func(b []byte, ep, seq, mask uint64, shards int, ttlUs uint64) []byte {
		b = codec.AppendUvarint(b, ep)
		b = codec.AppendUvarint(b, seq)
		b = codec.AppendUvarint(b, mask)
		b = codec.AppendUvarint(b, uint64(shards))
		return codec.AppendUvarint(b, ttlUs)
	}
	reg.Register(tagLeaseGrant, msgLeaseGrant{},
		func(b []byte, v any) []byte {
			m := v.(msgLeaseGrant)
			return grantBody(b, m.Epoch, m.Seq, m.Mask, m.Shards, m.TTLus)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgLeaseGrant{Epoch: r.Uvarint(), Seq: r.Uvarint(), Mask: r.Uvarint(), Shards: int(r.Uvarint()), TTLus: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagLeaseRenew, msgLeaseRenew{},
		func(b []byte, v any) []byte {
			m := v.(msgLeaseRenew)
			return grantBody(b, m.Epoch, m.Seq, m.Mask, m.Shards, m.TTLus)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgLeaseRenew{Epoch: r.Uvarint(), Seq: r.Uvarint(), Mask: r.Uvarint(), Shards: int(r.Uvarint()), TTLus: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagLeaseInval, msgLeaseInval{},
		func(b []byte, v any) []byte {
			m := v.(msgLeaseInval)
			b = codec.AppendUvarint(b, m.Seq)
			return codec.AppendUvarint(b, m.Mask)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgLeaseInval{Seq: r.Uvarint(), Mask: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagLeaseAck, msgLeaseAck{},
		func(b []byte, v any) []byte {
			m := v.(msgLeaseAck)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, uint64(m.Kind))
			ok := uint64(0)
			if m.OK {
				ok = 1
			}
			return codec.AppendUvarint(b, ok)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgLeaseAck{Seq: r.Uvarint(), Kind: uint8(r.Uvarint()), OK: r.Uvarint() != 0}
			return m, r.Err()
		})
	reg.Register(tagLeasePull, msgLeasePull{},
		func(b []byte, v any) []byte {
			m := v.(msgLeasePull)
			b = codec.AppendUvarint(b, m.Epoch)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, m.Mask)
			return codec.AppendUvarint(b, uint64(m.Shards))
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgLeasePull{Epoch: r.Uvarint(), Seq: r.Uvarint(), Mask: r.Uvarint(), Shards: int(r.Uvarint())}
			return m, r.Err()
		})
	reg.Register(tagLeasePullReply, msgLeasePullReply{},
		func(b []byte, v any) []byte {
			m := v.(msgLeasePullReply)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, uint64(len(m.Keys)))
			for i, k := range m.Keys {
				b = codec.AppendString(b, k)
				b = codec.AppendUvarint(b, m.Vers[i].Counter)
				b = codec.AppendUvarint(b, uint64(m.Vers[i].Writer))
				b = codec.AppendString(b, m.Vals[i])
			}
			return b
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgLeasePullReply{Seq: r.Uvarint()}
			if n, ok := batchLen(r); ok {
				m.Keys = make([]string, n)
				m.Vers = make([]Version, n)
				m.Vals = make([]string, n)
				for i := range m.Keys {
					m.Keys[i] = r.String()
					m.Vers[i].Counter = r.Uvarint()
					m.Vers[i].Writer = cluster.NodeID(r.Uvarint())
					m.Vals[i] = r.String()
				}
			}
			return m, r.Err()
		})
	reg.Register(tagLeaseDrop, msgLeaseDrop{},
		func(b []byte, v any) []byte {
			m := v.(msgLeaseDrop)
			b = codec.AppendUvarint(b, m.Seq)
			return codec.AppendUvarint(b, m.Mask)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgLeaseDrop{Seq: r.Uvarint(), Mask: r.Uvarint()}
			return m, r.Err()
		})
}
