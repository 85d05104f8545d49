package rkv

// Reconfiguration coordinator: drives a live configuration swap (quorum
// flavor and/or membership) through the two-phase joint-config handoff.
//
// From a stable config C_old at epoch e, the coordinator:
//
//  1. Spread: installs the joint config {e+1, Cur: C_new, Old: C_old}
//     locally and pushes it to every member of old ∪ new, collecting
//     acks until the acked set covers both a read quorum of C_old and a
//     write quorum of C_new. From that point no operation can complete
//     purely under epoch e: every old write quorum intersects the acked
//     old read quorum, so at least one member rejects its frames with
//     ErrStaleEpoch and the client retries under the joint config, whose
//     union quorums span both worlds.
//  2. Snapshot: reads the keyed store from an old-config read quorum at
//     the joint epoch, merging the highest version per key. Because
//     replicas serve requests under the epoch store's read lock, every
//     write admitted at epoch e by a snapshot member happened before its
//     joint install, hence before its snapshot — nothing is missed.
//  3. Push: writes the merged state to a new-config write quorum at the
//     joint epoch (monotonic version merge, so concurrent client writes
//     are never regressed). Afterwards every read quorum of C_new
//     observes everything written under C_old.
//  4. Finalize: installs the stable config {e+2, Cur: C_new}, pushes it
//     until a new-config read quorum acks, then reports done. Stragglers
//     catch up through the per-op stale/fetch traffic.
//
// Retries re-send the current wave; members that stay silent across a
// wave are dropped from the acked set and the needed quorums re-picked
// (falling back to more spreading when coverage is lost). A coordinator
// crash abandons the attempt at worst mid-joint — strictly smaller
// quorum availability but full safety — and the transition can be
// resumed later by any coordinator naming the same target.

import (
	"time"

	"hquorum/internal/attempt"
	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
)

// Reconfiguration wire messages (tags 0x17-0x1e, see wire.go). Configs
// and params travel pre-encoded ([]byte) so every frame that carries one
// shares one hostile-input-guarded decode path (epoch.DecodeConfig).
type (
	// msgConfigPush distributes a config; the receiver installs it if
	// newer and acks with its (possibly fresher) state.
	msgConfigPush struct {
		Seq uint64
		Cfg []byte
	}
	// msgConfigAck reports the receiver's current epoch and config
	// fingerprint after a push. Only acks matching the coordinator's
	// pushed config count toward its coverage quorums — a rival
	// coordinator's config at the same epoch has a different fingerprint.
	msgConfigAck struct {
		Seq   uint64
		Epoch uint64
		Fp    uint64
	}
	// msgStaleEpoch rejects a frame sent under an older epoch, attaching
	// the receiver's config so the sender can catch up and retry.
	msgStaleEpoch struct {
		Seq uint64
		Cfg []byte
	}
	// msgConfigReq asks the receiver for its config if newer than Epoch
	// (sent when we are the stale side of a mismatch).
	msgConfigReq struct {
		Epoch uint64
	}
	// msgSnapReq asks for the replica's full keyed store, served only at
	// the exact epoch (the coordinator's snapshot phase).
	msgSnapReq struct {
		Epoch uint64
		Seq   uint64
	}
	// msgSnapReply carries the store dump, parallel slices sorted by key.
	msgSnapReply struct {
		Seq  uint64
		Keys []string
		Vers []Version
		Vals []string
	}
	// msgReconfig asks the receiver to coordinate a reconfiguration to
	// Target (epoch.Params wire form) — the quorumctl reconfig client.
	msgReconfig struct {
		Seq    uint64
		Target []byte
	}
	// msgReconfigDone reports the outcome to the msgReconfig requester.
	msgReconfigDone struct {
		Seq   uint64
		Epoch uint64
		Err   string
	}
)

// Reconfiguration timer tokens.
type (
	tokenReconfig    struct{ Target epoch.Params }
	tokenReconfigDue struct{ Seq uint64 }
	tokenRcClient    struct{}
)

// ReconfigToken returns the timer token that makes the receiving node
// coordinate a reconfiguration to target — deliver it with
// cluster.Network.StartTimer or a transport Kick.
func ReconfigToken(target epoch.Params) any { return tokenReconfig{Target: target} }

// Coordinator phases. rcLeaseSweep is the epoch fence's first half: the
// coordinator invalidates every lease it knows of (and waits out its own
// write quarantine) BEFORE installing the joint config, so a member
// joining at the new epoch can never miss a lease granted under the old
// one (its table starts empty — it must not need entries to be safe).
const (
	rcIdle = iota
	rcLeaseSweep
	rcSpread
	rcSnap
	rcPush
	rcFinal
)

type mergedVal struct {
	ver Version
	val string
}

// reconfigState is the coordinator's state machine. Zero value = idle.
type reconfigState struct {
	phase    int
	seq      uint64 // current wave's seq (shares Node.seq numbering with ops)
	attempts int    // consecutive wave timeouts: the backoff shift of attempt.Patience

	target     epoch.Params
	joint      epoch.Config
	final      epoch.Config
	jointBytes []byte
	finalBytes []byte
	jointFp    uint64
	finalFp    uint64

	oldPk *epoch.Pickers // the outgoing config's quorums
	newPk *epoch.Pickers // the target config's quorums

	targets []cluster.NodeID // old ∪ new members, sorted
	acked   bitset.Set       // members confirmed at the phase's config
	pending bitset.Set       // snapshot/push wave members not yet answered
	merged  map[string]mergedVal

	// sweepEpoch is the epoch observed when the lease sweep started; the
	// sweep's supersession check uses it (final.Epoch is still 0 then).
	sweepEpoch uint64

	requester    cluster.NodeID // msgReconfig client to notify, if any
	reqSeq       uint64
	hasRequester bool
}

// startReconfig begins (or resumes, or adopts a requester into) a
// reconfiguration with this node as coordinator.
func (n *Node) startReconfig(env cluster.Env, target epoch.Params, requester cluster.NodeID, reqSeq uint64, hasReq bool) {
	fail := func(msg string) {
		if hasReq {
			env.Send(requester, msgReconfigDone{Seq: reqSeq, Epoch: n.epochNow(), Err: msg})
		}
	}
	if n.rc.phase != rcIdle {
		if n.rc.target.Equal(target) {
			if hasReq {
				n.rc.requester, n.rc.reqSeq, n.rc.hasRequester = requester, reqSeq, true
			}
			return
		}
		fail("another reconfiguration is in progress")
		return
	}
	cur := n.cfg.Epochs.Snapshot()
	if !cur.Joint() && cur.Cur.Equal(target) {
		if hasReq {
			env.Send(requester, msgReconfigDone{Seq: reqSeq, Epoch: cur.Epoch})
		}
		return
	}
	space := n.cfg.Epochs.Universe()
	if _, err := epoch.NewPickers(space, target); err != nil {
		// Validate before committing to a sweep: a malformed target must
		// not cost the cluster its leases.
		fail(err.Error())
		return
	}
	if n.leaseSweepNeeded(env) {
		n.rc = reconfigState{
			phase:        rcLeaseSweep,
			target:       target,
			sweepEpoch:   cur.Epoch,
			acked:        bitset.New(space),
			pending:      bitset.New(space),
			requester:    requester,
			reqSeq:       reqSeq,
			hasRequester: hasReq,
		}
		n.rcSweepWave(env)
		return
	}
	n.rcBeginTransition(env, target, requester, reqSeq, hasReq)
}

// rcBeginTransition is the original transition entry: install the joint
// config and start spreading it. Reached directly when no lease can be
// alive, or from the sweep's completion.
func (n *Node) rcBeginTransition(env cluster.Env, target epoch.Params, requester cluster.NodeID, reqSeq uint64, hasReq bool) {
	n.rc = reconfigState{} // a sweep's state, if any, is consumed here
	fail := func(msg string) {
		if hasReq {
			env.Send(requester, msgReconfigDone{Seq: reqSeq, Epoch: n.epochNow(), Err: msg})
		}
	}
	cur := n.cfg.Epochs.Snapshot()
	if !cur.Joint() && cur.Cur.Equal(target) {
		if hasReq {
			env.Send(requester, msgReconfigDone{Seq: reqSeq, Epoch: cur.Epoch})
		}
		return
	}
	space := n.cfg.Epochs.Universe()
	newPk, err := epoch.NewPickers(space, target)
	if err != nil {
		fail(err.Error())
		return
	}
	var joint epoch.Config
	if cur.Joint() {
		// A previous coordinator crashed mid-transition. Only the same
		// target can be driven to completion (the joint config's identity
		// is already fixed); a different target must wait for this one.
		if !cur.Cur.Equal(target) {
			fail("cluster is mid-transition to a different config")
			return
		}
		joint = cur
	} else {
		old := cur.Cur
		joint = epoch.Config{Epoch: cur.Epoch + 1, Cur: target, Old: &old}
		if _, err := n.cfg.Epochs.Install(joint); err != nil {
			fail(err.Error())
			return
		}
	}
	oldPk, err := epoch.NewPickers(space, *joint.Old)
	if err != nil {
		fail(err.Error())
		return
	}

	n.rc = reconfigState{
		phase:        rcSpread,
		target:       target,
		joint:        joint,
		final:        epoch.Config{Epoch: joint.Epoch + 1, Cur: target},
		jointBytes:   joint.Encode(nil),
		oldPk:        oldPk,
		newPk:        newPk,
		targets:      unionMembers(*joint.Old, target),
		acked:        bitset.New(space),
		pending:      bitset.New(space),
		requester:    requester,
		reqSeq:       reqSeq,
		hasRequester: hasReq,
	}
	n.rc.finalBytes = n.rc.final.Encode(nil)
	n.rc.jointFp = n.rc.joint.Fingerprint()
	n.rc.finalFp = n.rc.final.Fingerprint()
	n.rc.acked.Add(int(n.id)) // we installed the joint config ourselves
	n.rcSendWave(env)
}

// unionMembers merges two member lists, sorted ascending.
func unionMembers(a, b epoch.Params) []cluster.NodeID {
	seen := make(map[cluster.NodeID]bool)
	var out []cluster.NodeID
	for _, lists := range [][]cluster.NodeID{a.Members, b.Members} {
		for _, id := range lists {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// rcSendWave (re)sends the current phase's outstanding messages under a
// fresh seq and arms the wave timer. Self-addressed work is done inline.
func (n *Node) rcSendWave(env cluster.Env) {
	n.seq++
	n.rc.seq = n.seq
	switch n.rc.phase {
	case rcSpread:
		for _, id := range n.rc.targets {
			if id != n.id && !n.rc.acked.Contains(int(id)) {
				env.Send(id, msgConfigPush{Seq: n.rc.seq, Cfg: n.rc.jointBytes})
			}
		}
	case rcSnap:
		msg := msgSnapReq{Epoch: n.rc.joint.Epoch, Seq: n.rc.seq}
		n.rc.pending.ForEach(func(m int) { env.Send(cluster.NodeID(m), msg) })
	case rcPush:
		keys, vers, vals := rcMergedSlices(n.rc.merged)
		msg := msgWriteBatch{Epoch: n.rc.joint.Epoch, Seq: n.rc.seq, Keys: keys, Vers: vers, Vals: vals}
		n.rc.pending.ForEach(func(m int) { env.Send(cluster.NodeID(m), msg) })
	case rcFinal:
		for _, id := range n.rc.targets {
			if id != n.id && !n.rc.acked.Contains(int(id)) {
				env.Send(id, msgConfigPush{Seq: n.rc.seq, Cfg: n.rc.finalBytes})
			}
		}
	}
	env.After(attempt.Patience(env.Rand(), n.cfg.Timeout, n.rc.attempts), tokenReconfigDue{Seq: n.rc.seq})
}

// rcMergedSlices flattens the merged snapshot into wire slices, sorted by
// key for determinism.
func rcMergedSlices(merged map[string]mergedVal) ([]string, []Version, []string) {
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	vers := make([]Version, len(keys))
	vals := make([]string, len(keys))
	for i, k := range keys {
		vers[i] = merged[k].ver
		vals[i] = merged[k].val
	}
	return keys, vers, vals
}

// onConfigPush installs a distributed config if newer and acks with our
// current state. Runs on the replica fast path (epoch store locking makes
// it thread-safe), so configs spread without waiting on event loops.
func (n *Node) onConfigPush(env cluster.Env, from cluster.NodeID, m msgConfigPush) {
	if cfg, err := epoch.DecodeConfig(m.Cfg); err == nil {
		_, _ = n.cfg.Epochs.Install(cfg) // invalid or older configs are dropped
	}
	cur := n.cfg.Epochs.Snapshot()
	env.Send(from, msgConfigAck{Seq: m.Seq, Epoch: cur.Epoch, Fp: cur.Fingerprint()})
}

// onConfigReq answers a peer that discovered it is behind: push our
// config if it is really newer than what the peer reported.
func (n *Node) onConfigReq(env cluster.Env, from cluster.NodeID, m msgConfigReq) {
	cur := n.cfg.Epochs.Snapshot()
	if cur.Epoch > m.Epoch {
		env.Send(from, msgConfigPush{Seq: 0, Cfg: cur.Encode(nil)})
	}
}

// rcOnConfigAck counts spread/finalize acknowledgements. Only acks that
// echo the exact pushed config (epoch and fingerprint) count; an ack
// carrying a config newer than our final one means another coordinator
// got ahead — abandon in its favor.
func (n *Node) rcOnConfigAck(env cluster.Env, from cluster.NodeID, m msgConfigAck) {
	if n.rc.phase == rcIdle || m.Seq != n.rc.seq {
		return
	}
	if m.Epoch > n.rc.final.Epoch {
		n.rcAbort(env, "superseded by a newer configuration")
		return
	}
	switch n.rc.phase {
	case rcSpread:
		if m.Epoch == n.rc.joint.Epoch && m.Fp == n.rc.jointFp {
			n.rc.acked.Add(int(from))
			n.rcMaybeSnapshot(env)
		}
	case rcFinal:
		if m.Epoch == n.rc.final.Epoch && m.Fp == n.rc.finalFp {
			n.rc.acked.Add(int(from))
			n.rcMaybeFinish(env)
		}
	}
}

// rcMaybeSnapshot advances spread → snapshot once the acked set covers
// both an old-config read quorum (so no stale-epoch write can complete
// any more) and a new-config write quorum (so the push phase can land).
func (n *Node) rcMaybeSnapshot(env cluster.Env) {
	if _, err := n.rc.oldPk.Read(env.Rand(), n.rc.acked); err != nil {
		return
	}
	if _, err := n.rc.newPk.Write(env.Rand(), n.rc.acked); err != nil {
		return
	}
	n.rcEnterSnapshot(env)
}

// rcEnterSnapshot picks the old-config read quorum to snapshot from. If
// coverage was lost (acks dropped after timeouts), falls back to more
// spreading.
func (n *Node) rcEnterSnapshot(env cluster.Env) {
	q, err := n.rc.oldPk.Read(env.Rand(), n.rc.acked)
	if err != nil {
		n.rc.phase = rcSpread
		n.rcSendWave(env)
		return
	}
	n.rc.phase = rcSnap
	n.rc.merged = make(map[string]mergedVal)
	q.CopyInto(&n.rc.pending)
	if n.rc.pending.Contains(int(n.id)) {
		n.rc.pending.Remove(int(n.id))
		keys, vers, vals := n.store.dump()
		n.rcMergeSnap(keys, vers, vals)
	}
	if n.rc.pending.Empty() {
		n.rcEnterPush(env)
		return
	}
	n.rcSendWave(env)
}

func (n *Node) rcMergeSnap(keys []string, vers []Version, vals []string) {
	for i, k := range keys {
		if cur, ok := n.rc.merged[k]; !ok || cur.ver.Less(vers[i]) {
			n.rc.merged[k] = mergedVal{ver: vers[i], val: vals[i]}
		}
	}
}

func (n *Node) rcOnSnapReply(env cluster.Env, from cluster.NodeID, m msgSnapReply) {
	if n.rc.phase != rcSnap || m.Seq != n.rc.seq || !n.rc.pending.Contains(int(from)) {
		return
	}
	if len(m.Vers) != len(m.Keys) || len(m.Vals) != len(m.Keys) {
		return // malformed: the wave timer re-asks
	}
	n.rc.pending.Remove(int(from))
	n.rcMergeSnap(m.Keys, m.Vers, m.Vals)
	if n.rc.pending.Empty() {
		n.rcEnterPush(env)
	}
}

// rcEnterPush writes the merged snapshot to a new-config write quorum at
// the joint epoch. An empty snapshot (no keys ever written) skips
// straight to finalize.
func (n *Node) rcEnterPush(env cluster.Env) {
	if len(n.rc.merged) == 0 {
		n.rcEnterFinal(env)
		return
	}
	q, err := n.rc.newPk.Write(env.Rand(), n.rc.acked)
	if err != nil {
		n.rc.phase = rcSpread
		n.rcSendWave(env)
		return
	}
	n.rc.phase = rcPush
	q.CopyInto(&n.rc.pending)
	if n.rc.pending.Contains(int(n.id)) {
		n.rc.pending.Remove(int(n.id))
		keys, vers, vals := rcMergedSlices(n.rc.merged)
		var maxC uint64
		ok := true
		for i, k := range keys {
			if vers[i].Counter > maxC {
				maxC = vers[i].Counter
			}
			ok = n.applyPut(k, vers[i], vals[i]) && ok
		}
		n.mergeClock(maxC)
		// The coordinator counts itself toward the push quorum only if
		// its local apply is as durable as a remote member's acked one.
		if !ok || !n.commitDurable() {
			n.rc.pending.Add(int(n.id))
		}
	}
	if n.rc.pending.Empty() {
		n.rcEnterFinal(env)
		return
	}
	n.rcSendWave(env)
}

// rcOnWriteAck consumes write acks addressed to the push wave; reports
// whether the ack belonged to the coordinator (op acks return false).
func (n *Node) rcOnWriteAck(env cluster.Env, from cluster.NodeID, m msgWriteAck) bool {
	if n.rc.phase != rcPush || m.Seq != n.rc.seq {
		return false
	}
	if n.rc.pending.Contains(int(from)) {
		n.rc.pending.Remove(int(from))
		if n.rc.pending.Empty() {
			n.rcEnterFinal(env)
		}
	}
	return true
}

// rcEnterFinal installs the stable target config locally and pushes it
// until a new-config read quorum acknowledges.
func (n *Node) rcEnterFinal(env cluster.Env) {
	n.rc.phase = rcFinal
	if _, err := n.cfg.Epochs.Install(n.rc.final); err != nil {
		n.rcAbort(env, err.Error())
		return
	}
	n.rc.acked.Clear()
	n.rc.acked.Add(int(n.id))
	n.rcSendWave(env)
}

// rcMaybeFinish completes the reconfiguration once a new-config read
// quorum runs the stable config: any subsequent read intersects the
// synced state. Remaining members get one last best-effort push and
// otherwise catch up through per-op stale/fetch traffic.
func (n *Node) rcMaybeFinish(env cluster.Env) {
	if _, err := n.rc.newPk.Read(env.Rand(), n.rc.acked); err != nil {
		return
	}
	for _, id := range n.rc.targets {
		if id != n.id && !n.rc.acked.Contains(int(id)) {
			env.Send(id, msgConfigPush{Seq: 0, Cfg: n.rc.finalBytes})
		}
	}
	if n.rc.hasRequester {
		env.Send(n.rc.requester, msgReconfigDone{Seq: n.rc.reqSeq, Epoch: n.rc.final.Epoch})
	}
	n.rc = reconfigState{}
}

// rcAbort abandons the attempt (rival coordinator won, or the final
// install failed), notifying the requester.
func (n *Node) rcAbort(env cluster.Env, msg string) {
	if n.rc.hasRequester {
		env.Send(n.rc.requester, msgReconfigDone{Seq: n.rc.reqSeq, Epoch: n.epochNow(), Err: msg})
	}
	n.rc = reconfigState{}
}

// rcTimeout handles a wave timer: re-send the wave, dropping members that
// stayed silent through a snapshot/push wave from the acked set so their
// quorums get re-picked around them.
func (n *Node) rcTimeout(env cluster.Env, seq uint64) {
	if n.rc.phase == rcIdle || seq != n.rc.seq {
		return
	}
	if n.rc.phase == rcLeaseSweep {
		// final.Epoch is still 0 here; the sweep has its own supersession
		// check against the epoch it started under.
		if n.cfg.Epochs.Epoch() != n.rc.sweepEpoch {
			n.rcAbort(env, "superseded by a newer configuration")
			return
		}
		n.rc.attempts++
		n.rcSweepWave(env)
		return
	}
	if n.cfg.Epochs.Epoch() > n.rc.final.Epoch {
		n.rcAbort(env, "superseded by a newer configuration")
		return
	}
	n.rc.attempts++
	switch n.rc.phase {
	case rcSpread, rcFinal:
		n.rcSendWave(env)
	case rcSnap:
		n.rc.acked.DifferenceWith(n.rc.pending)
		n.rcEnterSnapshot(env)
	case rcPush:
		n.rc.acked.DifferenceWith(n.rc.pending)
		n.rcEnterPush(env)
	}
}

// leaseSweepNeeded reports whether any lease obligation could be alive:
// a live table entry, our own holder holding (or acquiring) anything, or
// a still-running write quarantine. Expired entries are dropped on the
// way.
func (n *Node) leaseSweepNeeded(env cluster.Env) bool {
	now := env.Now()
	if now < n.leaseBlockedUntil {
		return true
	}
	if n.lh != nil && (n.lh.Active() != 0 || !n.lh.Idle()) {
		return true
	}
	for _, h := range n.lt.Holders() {
		e, _ := n.lt.Get(h)
		if now < e.Expiry {
			return true
		}
		n.lt.Drop(h)
	}
	return false
}

// rcSweepWave (re)sends the sweep's invalidations: every live table
// entry gets a msgLeaseInval for its full mask; our own holder is
// dropped inline (the coordinator cannot fence others while itself
// serving local reads).
func (n *Node) rcSweepWave(env cluster.Env) {
	now := env.Now()
	if n.lh != nil {
		if !n.lh.Idle() {
			n.lh.Abort(now)
		}
		if mask := n.lh.DropAll(now); mask != 0 {
			n.leaseBroadcastDrop(env, mask)
		}
		n.leasePublish()
	}
	n.seq++
	n.rc.seq = n.seq
	n.rc.pending.Clear()
	for _, h := range n.lt.Holders() {
		e, _ := n.lt.Get(h)
		if now >= e.Expiry {
			n.lt.Drop(h)
			continue
		}
		n.rc.pending.Add(int(h))
		env.Send(h, msgLeaseInval{Seq: n.rc.seq, Mask: e.Mask})
	}
	if n.rcSweepMaybeDone(env) {
		return
	}
	env.After(attempt.Patience(env.Rand(), n.cfg.Timeout, n.rc.attempts), tokenReconfigDue{Seq: n.rc.seq})
}

// rcSweepMaybeDone advances past the sweep once every inval is acked AND
// the write quarantine (if any) has run out; reports whether it consumed
// the phase (or armed the quarantine timer).
func (n *Node) rcSweepMaybeDone(env cluster.Env) bool {
	if !n.rc.pending.Empty() {
		return false
	}
	if wait := n.leaseBlockedUntil - env.Now(); wait > 0 {
		// Unknown entries may exist (lost table): sit out the quarantine
		// under a fresh seq, then re-check.
		n.seq++
		n.rc.seq = n.seq
		env.After(wait, tokenReconfigDue{Seq: n.rc.seq})
		return true
	}
	n.rcBeginTransition(env, n.rc.target, n.rc.requester, n.rc.reqSeq, n.rc.hasRequester)
	return true
}

// rcOnLeaseSweepAck consumes a holder's inval ack for the sweep wave;
// reports whether the ack belonged to the sweep.
func (n *Node) rcOnLeaseSweepAck(env cluster.Env, from cluster.NodeID, seq uint64) bool {
	if n.rc.phase != rcLeaseSweep || seq != n.rc.seq {
		return false
	}
	if !n.rc.pending.Contains(int(from)) {
		return true // duplicate; still a sweep ack
	}
	n.rc.pending.Remove(int(from))
	n.lt.Drop(from)
	n.rcSweepMaybeDone(env)
	return true
}

// onReconfigRequest serves a msgReconfig: become (or already be) the
// coordinator for the requested target and report back when done.
func (n *Node) onReconfigRequest(env cluster.Env, from cluster.NodeID, m msgReconfig) {
	target, err := epoch.DecodeParams(m.Target)
	if err != nil {
		env.Send(from, msgReconfigDone{Seq: m.Seq, Epoch: n.epochNow(), Err: "malformed target params"})
		return
	}
	n.startReconfig(env, target, from, m.Seq, true)
}

// Reconfiguring reports whether this node is currently coordinating a
// reconfiguration (tests and drains).
func (n *Node) Reconfiguring() bool { return n.rc.phase != rcIdle }

// ReconfigClient is a minimal cluster.Handler that asks a contact node to
// coordinate a reconfiguration and waits for the outcome — the client
// side of `quorumctl reconfig`. It retries the request until answered
// (the coordinator deduplicates by target), then calls onDone once with
// the resulting epoch and an error string ("" on success).
type ReconfigClient struct {
	contact cluster.NodeID
	target  []byte
	retry   time.Duration
	done    bool
	onDone  func(epoch uint64, errText string)
}

// NewReconfigClient builds the client; kick it off by delivering
// StartToken to its Timer (transport Kick or cluster.Network.StartTimer).
func NewReconfigClient(contact cluster.NodeID, target epoch.Params, retry time.Duration, onDone func(epoch uint64, errText string)) *ReconfigClient {
	if retry <= 0 {
		retry = time.Second
	}
	return &ReconfigClient{
		contact: contact,
		target:  target.Encode(nil),
		retry:   retry,
		onDone:  onDone,
	}
}

var _ cluster.Handler = (*ReconfigClient)(nil)

// StartToken returns the timer token that fires the first request.
func (c *ReconfigClient) StartToken() any { return tokenRcClient{} }

// Timer implements cluster.Handler: send (or re-send) the request.
func (c *ReconfigClient) Timer(env cluster.Env, token any) {
	if c.done {
		return
	}
	env.Send(c.contact, msgReconfig{Seq: 1, Target: c.target})
	env.After(c.retry, tokenRcClient{})
}

// Deliver implements cluster.Handler: consume the outcome; everything
// else (stray protocol traffic) is ignored — this node is not a replica.
func (c *ReconfigClient) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	m, ok := msg.(msgReconfigDone)
	if !ok || m.Seq != 1 || c.done {
		return
	}
	c.done = true
	if c.onDone != nil {
		c.onDone(m.Epoch, m.Err)
	}
}
