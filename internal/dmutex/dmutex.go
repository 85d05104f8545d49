// Package dmutex implements quorum-based distributed mutual exclusion in
// the style of Maekawa, parameterized by any quorum construction from this
// repository — the coordination protocol the paper's quorum systems exist
// to serve (§1).
//
// To enter the critical section a node picks a quorum and asks each member
// for its GRANT; a member grants one request at a time, so the intersection
// property guarantees mutual exclusion. Deadlocks between concurrent
// requests are broken with Lamport-priority INQUIRE / RELINQUISH / FAILED
// messages: an arbiter that granted a younger request probes it when an
// older one arrives, and a requester that knows it is losing hands its
// grants back. Crashed arbiters are handled by client-side timeouts: the
// requester releases its partial quorum, marks unresponsive members as
// suspects, and retries with a quorum drawn from the remaining nodes.
package dmutex

import (
	"fmt"
	"math/rand"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/quorum"
)

// ReqID orders requests: earlier Lamport timestamps win; node IDs break
// ties.
type ReqID struct {
	TS     uint64
	Origin cluster.NodeID
}

// Less reports whether r has priority over o.
func (r ReqID) Less(o ReqID) bool {
	if r.TS != o.TS {
		return r.TS < o.TS
	}
	return r.Origin < o.Origin
}

// Wire messages. Every message leads with the sender's configuration
// epoch (0 when the node is not epoch-versioned, see Config.Epochs): a
// stale-epoch REQUEST is rejected with an epoch-stamped FAILED, and busy
// keep-alives let an arbiter track which epoch its grantee last proved it
// was operating under.
type (
	msgRequest struct {
		Epoch uint64
		ID    ReqID
	}
	msgGrant struct {
		Epoch uint64
		ID    ReqID
	}
	msgFailed struct {
		Epoch uint64
		ID    ReqID
	}
	msgInquire struct {
		Epoch uint64
		ID    ReqID
	}
	msgRelinquish struct {
		Epoch uint64
		ID    ReqID
	}
	msgRelease struct {
		Epoch uint64
		ID    ReqID
	}
	// msgBusy is a keep-alive: a grantee that received INQUIRE but keeps
	// the grant (it is in the critical section, or still winning) answers
	// busy so the arbiter can tell a live contender from a crashed one.
	msgBusy struct {
		Epoch uint64
		ID    ReqID
	}
)

// Timer tokens.
type (
	tokenStart struct{}
	tokenHold  struct{ ID ReqID }
	tokenThink struct{}
	tokenRetry struct{ ID ReqID }
	tokenProbe struct{}
)

// Workload drives a node through Count critical sections, holding the lock
// for Hold and pausing Think between attempts.
type Workload struct {
	Count int
	Hold  time.Duration
	Think time.Duration
}

// Config parameterizes a node.
type Config struct {
	// System supplies quorums; all nodes must share the same construction.
	// Optional when Epochs is set.
	System quorum.System
	// Epochs, when non-nil, makes the node epoch-versioned: quorum picks
	// route through the store's current (possibly joint) configuration,
	// every outgoing message is stamped with the store's epoch, stale-epoch
	// requests are rejected with an epoch-stamped FAILED, and acquisitions
	// that keep losing to a newer configuration fail with
	// epoch.ErrStaleEpoch at their deadline. The store is shared with the
	// co-located rkv node, which owns config distribution — dmutex only
	// reads it. Takes precedence over System.
	Epochs *epoch.Store
	// RetryTimeout bounds how long a requester's attempt waits for a full
	// quorum before releasing and retrying, and doubles as the arbiter's
	// grantee-probe interval (default 500ms). Attempts whose quorum went
	// entirely silent back off exponentially — with jitter drawn from the
	// node's deterministic rng — up to MaxRetryTimeout; attempts that got
	// any reply retry at the base patience, since contention and message
	// loss are recovered by re-picking, not waiting.
	RetryTimeout time.Duration
	// MaxRetryTimeout caps the per-attempt backoff (default 8×RetryTimeout).
	MaxRetryTimeout time.Duration
	// AcquireDeadline bounds one acquisition across all its retries. When
	// it expires the attempt is abandoned and reported through OnFail with
	// a typed error instead of retrying forever: quorum.ErrNoQuorum when
	// every quorum contained a replica that went silent during the attempt,
	// quorum.ErrDegraded otherwise. Zero means no deadline.
	AcquireDeadline time.Duration
	// SuspectTTL ages out crash suspicions, so a crashed-then-restarted
	// arbiter rejoins quorum picks without operator intervention (default
	// 4×RetryTimeout; negative disables decay).
	SuspectTTL time.Duration
	// GranteeTimeout makes an arbiter reclaim its grant after that much
	// probe silence from the grantee, so a crashed lock holder cannot wedge
	// the cluster (default 8×RetryTimeout; negative disables reclamation).
	// Live grantees answer probes with busy keep-alives and are never
	// reclaimed; the tradeoff is that a *partitioned* live grantee can be
	// presumed dead, briefly violating safety — keep GranteeTimeout well
	// above expected partition-heal times when that matters.
	GranteeTimeout time.Duration
	// Workload is the node's critical-section schedule (zero Count = pure
	// arbiter).
	Workload Workload
	// OnAcquire and OnRelease observe critical-section entry/exit (used by
	// tests and benchmarks to assert mutual exclusion and count entries).
	OnAcquire func(id cluster.NodeID, at time.Duration)
	OnRelease func(id cluster.NodeID, at time.Duration)
	// OnFail observes acquisitions abandoned at their AcquireDeadline.
	OnFail func(id cluster.NodeID, at time.Duration, err error)
}

// arbiter is the per-node grant-management state.
type arbiter struct {
	grantedTo *ReqID
	queue     []ReqID       // pending requests, kept sorted by priority
	inquired  bool          // INQUIRE outstanding for grantedTo
	probing   bool          // periodic grantee probe armed
	lastHeard time.Duration // when the grantee last proved it was alive
	// grantEpoch is the configuration epoch the current grantee last
	// proved it was operating under (from its REQUEST, refreshed by busy
	// keep-alives); epochOf remembers the same for queued requests. A
	// grant whose epoch lags the arbiter's store is probed immediately —
	// the grantee either refreshes its epoch through a keep-alive or hands
	// the grant back, so a lock granted under an old configuration cannot
	// silently wedge the new one.
	grantEpoch uint64
	epochOf    map[ReqID]uint64
}

// requester is the per-node acquisition state.
type requester struct {
	active      bool
	id          ReqID
	quorum      bitset.Set
	grants      bitset.Set
	owed        bitset.Set // arbiters relinquished before their GRANT arrived
	responded   bitset.Set // quorum members that sent any reply this attempt
	failed      bool
	deferred    []cluster.NodeID // arbiters whose INQUIRE we deferred
	inCS        bool
	remaining   int
	suspects    bitset.Set
	suspectAt   []time.Duration // when each suspicion was recorded
	opSuspects  bitset.Set      // everyone silent during this acquisition (no decay)
	sawNoQuorum bool            // this acquisition once found no quorum among trusted nodes
	sawStale    bool            // this acquisition was rejected by a newer-epoch arbiter
	attempt     int
}

// Node implements cluster.Handler: every node is both an arbiter for its
// peers and (optionally) a requester driven by its workload.
type Node struct {
	id    cluster.NodeID
	cfg   Config
	clock uint64
	arb   arbiter
	req   requester

	// stats
	Entries   int
	Retries   int
	WaitTotal time.Duration
	waitStart time.Duration
}

var _ cluster.Handler = (*Node)(nil)

// NewNode builds a protocol node. Node IDs must be the quorum system's
// element indices 0..n-1.
func NewNode(id cluster.NodeID, cfg Config) (*Node, error) {
	if cfg.System == nil && cfg.Epochs == nil {
		return nil, fmt.Errorf("dmutex: config needs a quorum system or an epoch store")
	}
	universe := 0
	if cfg.Epochs != nil {
		universe = cfg.Epochs.Universe()
	} else {
		universe = cfg.System.Universe()
	}
	if int(id) < 0 || int(id) >= universe {
		return nil, fmt.Errorf("dmutex: node %d outside universe %d", id, universe)
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 500 * time.Millisecond
	}
	if cfg.MaxRetryTimeout <= 0 {
		cfg.MaxRetryTimeout = 8 * cfg.RetryTimeout
	}
	if cfg.SuspectTTL == 0 {
		cfg.SuspectTTL = 4 * cfg.RetryTimeout
	}
	if cfg.GranteeTimeout == 0 {
		cfg.GranteeTimeout = 8 * cfg.RetryTimeout
	}
	n := &Node{id: id, cfg: cfg}
	n.req.suspects = bitset.New(universe)
	n.req.opSuspects = bitset.New(universe)
	n.req.suspectAt = make([]time.Duration, universe)
	n.req.remaining = cfg.Workload.Count
	return n, nil
}

// universe is the node ID space (the epoch store's space when
// epoch-versioned, the quorum system's otherwise).
func (n *Node) universe() int {
	if n.cfg.Epochs != nil {
		return n.cfg.Epochs.Universe()
	}
	return n.cfg.System.Universe()
}

// pick draws a mutex quorum under the current configuration. While the
// epoch store holds a joint config this is the union of a quorum of the
// old construction and one of the new — the two-phase handoff rule that
// keeps mutual exclusion across a reconfiguration.
func (n *Node) pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	if n.cfg.Epochs != nil {
		return n.cfg.Epochs.Pick(rng, live)
	}
	return n.cfg.System.Pick(rng, live)
}

// epochNow is the node's current configuration epoch (0 when not
// epoch-versioned).
func (n *Node) epochNow() uint64 {
	if n.cfg.Epochs == nil {
		return 0
	}
	return n.cfg.Epochs.Epoch()
}

// Start schedules the node's workload on the network.
func (n *Node) Start(net *cluster.Network) error {
	if n.cfg.Workload.Count == 0 {
		return nil
	}
	return net.StartTimer(n.id, 0, tokenStart{})
}

// Done reports whether the workload completed.
func (n *Node) Done() bool { return n.req.remaining == 0 && !n.req.active }

// Deliver implements cluster.Handler.
func (n *Node) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	switch m := msg.(type) {
	case msgRequest:
		n.bump(m.ID.TS)
		if n.cfg.Epochs != nil && m.Epoch < n.cfg.Epochs.Epoch() {
			// The requester picked its quorum under a superseded
			// configuration; its quorum may no longer intersect current
			// ones. Reject with our epoch so it re-picks once its (shared)
			// config store catches up — or fails with ErrStaleEpoch.
			env.Send(from, msgFailed{Epoch: n.epochNow(), ID: m.ID})
			return
		}
		n.arbRequest(env, from, m.ID, m.Epoch)
	case msgRelease:
		n.arbRelease(env, m.ID)
	case msgRelinquish:
		n.arbRelinquish(env, m.ID)
	case msgGrant:
		n.reqGrant(env, from, m.ID)
	case msgFailed:
		n.reqFailed(env, from, m.ID, m.Epoch)
	case msgInquire:
		n.reqInquire(env, from, m.ID)
	case msgBusy:
		n.arbBusy(env, m.ID, m.Epoch)
	default:
		panic(fmt.Sprintf("dmutex: unknown message %T", msg))
	}
}

// Timer implements cluster.Handler.
func (n *Node) Timer(env cluster.Env, token any) {
	switch tk := token.(type) {
	case tokenStart, tokenThink:
		n.beginRequest(env)
	case tokenHold:
		if n.req.inCS && n.req.id == tk.ID {
			n.exitCS(env)
		}
	case tokenRetry:
		if n.req.active && !n.req.inCS && n.req.id == tk.ID {
			n.retry(env)
		}
	case tokenProbe:
		n.arbProbe(env)
	default:
		panic(fmt.Sprintf("dmutex: unknown timer token %T", token))
	}
}

func (n *Node) bump(seen uint64) {
	if seen > n.clock {
		n.clock = seen
	}
}

// ---- Arbiter side ----

func (n *Node) arbRequest(env cluster.Env, from cluster.NodeID, id ReqID, ep uint64) {
	// A node has at most one outstanding request, so a request from the
	// same origin supersedes any older one — the origin abandoned it and
	// its RELEASE may have been lost. Conversely, a delayed *older*
	// request from an origin we already track is stale: drop it.
	if n.supersede(env, id) {
		return
	}
	if n.arb.grantedTo == nil {
		granted := id
		n.arb.grantedTo = &granted
		n.arb.grantEpoch = ep
		n.arb.lastHeard = env.Now()
		env.Send(id.Origin, msgGrant{Epoch: n.epochNow(), ID: id})
		return
	}
	if *n.arb.grantedTo == id {
		// Duplicate (retry after timeout); re-grant.
		if ep > n.arb.grantEpoch {
			n.arb.grantEpoch = ep
		}
		env.Send(id.Origin, msgGrant{Epoch: n.epochNow(), ID: id})
		return
	}
	n.enqueue(id)
	n.setReqEpoch(id, ep)
	if id.Less(*n.arb.grantedTo) {
		if !n.arb.inquired {
			n.arb.inquired = true
			env.Send(n.arb.grantedTo.Origin, msgInquire{Epoch: n.epochNow(), ID: *n.arb.grantedTo})
		}
	} else {
		env.Send(id.Origin, msgFailed{Epoch: n.epochNow(), ID: id})
	}
	n.armProbe(env)
	_ = from
}

// setReqEpoch records the epoch a queued request arrived under.
func (n *Node) setReqEpoch(id ReqID, ep uint64) {
	if n.arb.epochOf == nil {
		n.arb.epochOf = make(map[ReqID]uint64)
	}
	n.arb.epochOf[id] = ep
}

// armProbe schedules a periodic probe of the current grantee while
// requests wait. The probe re-sends INQUIRE, which a crashed-and-restarted
// or moved-on grantee answers with RELINQUISH — the recovery path when a
// RELEASE or RELINQUISH was lost in transit.
func (n *Node) armProbe(env cluster.Env) {
	if n.arb.probing {
		return
	}
	n.arb.probing = true
	env.After(n.cfg.RetryTimeout, tokenProbe{})
}

// arbProbe fires the periodic grantee probe. A grantee that has answered
// nothing — no RELINQUISH, RELEASE or busy keep-alive — for GranteeTimeout
// is presumed crashed and its grant is reclaimed, so a dead lock holder
// cannot wedge every quorum that intersects this arbiter.
func (n *Node) arbProbe(env cluster.Env) {
	n.arb.probing = false
	if n.arb.grantedTo == nil || len(n.arb.queue) == 0 {
		return
	}
	if n.cfg.GranteeTimeout > 0 && env.Now()-n.arb.lastHeard >= n.cfg.GranteeTimeout {
		n.grantNext(env)
	} else {
		// The INQUIRE doubles as epoch revalidation: a grantee that holds
		// the lock across a reconfiguration answers busy stamped with its
		// refreshed epoch, updating grantEpoch; one that never catches up
		// keeps its stale stamp and stays first in line for reclamation
		// scrutiny. Either way a waiting new-config request keeps the
		// probe loop alive until the old-config grant resolves.
		env.Send(n.arb.grantedTo.Origin, msgInquire{Epoch: n.epochNow(), ID: *n.arb.grantedTo})
	}
	if n.arb.grantedTo != nil && len(n.arb.queue) > 0 {
		n.armProbe(env)
	}
}

// arbBusy refreshes the grantee's liveness clock — and its epoch: a busy
// keep-alive stamped with a newer epoch proves the holder has adopted the
// new configuration, so the grant is no longer an old-config straggler.
func (n *Node) arbBusy(env cluster.Env, id ReqID, ep uint64) {
	if n.arb.grantedTo != nil && *n.arb.grantedTo == id {
		n.arb.lastHeard = env.Now()
		if ep > n.arb.grantEpoch {
			n.arb.grantEpoch = ep
		}
	}
}

// supersede reconciles arbiter state with a fresh request from an origin
// it already tracks. It returns true when the incoming request is stale
// and must be ignored.
func (n *Node) supersede(env cluster.Env, id ReqID) bool {
	for i := 0; i < len(n.arb.queue); i++ {
		q := n.arb.queue[i]
		if q.Origin != id.Origin || q == id {
			continue
		}
		if q.TS > id.TS {
			return true // a newer request is already queued
		}
		n.arb.queue = append(n.arb.queue[:i], n.arb.queue[i+1:]...)
		delete(n.arb.epochOf, q)
		i--
	}
	if g := n.arb.grantedTo; g != nil && g.Origin == id.Origin && *g != id {
		if g.TS > id.TS {
			return true // the grant already belongs to a newer request
		}
		// The granted request is obsolete: reclaim the grant before
		// processing the new request.
		n.grantNext(env)
	}
	return false
}

func (n *Node) enqueue(id ReqID) {
	for _, q := range n.arb.queue {
		if q == id {
			return
		}
	}
	n.arb.queue = append(n.arb.queue, id)
	for i := len(n.arb.queue) - 1; i > 0 && n.arb.queue[i].Less(n.arb.queue[i-1]); i-- {
		n.arb.queue[i], n.arb.queue[i-1] = n.arb.queue[i-1], n.arb.queue[i]
	}
}

func (n *Node) dequeue(id ReqID) {
	delete(n.arb.epochOf, id)
	for i, q := range n.arb.queue {
		if q == id {
			n.arb.queue = append(n.arb.queue[:i], n.arb.queue[i+1:]...)
			return
		}
	}
}

func (n *Node) arbRelease(env cluster.Env, id ReqID) {
	n.dequeue(id)
	if n.arb.grantedTo == nil || *n.arb.grantedTo != id {
		return
	}
	n.grantNext(env)
}

func (n *Node) arbRelinquish(env cluster.Env, id ReqID) {
	if n.arb.grantedTo == nil || *n.arb.grantedTo != id {
		return
	}
	// The relinquished request goes back to the queue and the best pending
	// request gets the grant.
	n.enqueue(id)
	n.setReqEpoch(id, n.arb.grantEpoch)
	n.grantNext(env)
}

func (n *Node) grantNext(env cluster.Env) {
	n.arb.inquired = false
	n.arb.grantedTo = nil
	n.arb.grantEpoch = 0
	if len(n.arb.queue) == 0 {
		return
	}
	next := n.arb.queue[0]
	n.arb.queue = n.arb.queue[1:]
	n.arb.grantedTo = &next
	n.arb.grantEpoch = n.arb.epochOf[next]
	delete(n.arb.epochOf, next)
	n.arb.lastHeard = env.Now()
	env.Send(next.Origin, msgGrant{Epoch: n.epochNow(), ID: next})
}

// ---- Requester side ----

func (n *Node) beginRequest(env cluster.Env) {
	if n.req.active || n.req.remaining == 0 {
		return
	}
	n.req.active = true
	n.req.attempt = 0
	n.req.sawNoQuorum = false
	n.req.sawStale = false
	n.req.opSuspects.Clear()
	n.waitStart = env.Now()
	n.issue(env)
}

// attemptTimeout returns the current attempt's patience: exponential
// backoff from RetryTimeout capped at MaxRetryTimeout, plus up to 50%
// jitter so colliding requesters desynchronize, clamped so the attempt
// never outlives the acquire deadline by more than one timer.
func (n *Node) attemptTimeout(env cluster.Env) time.Duration {
	shift := n.req.attempt
	if shift > 16 {
		shift = 16
	}
	d := n.cfg.RetryTimeout << uint(shift)
	if d <= 0 || d > n.cfg.MaxRetryTimeout {
		d = n.cfg.MaxRetryTimeout
	}
	d += time.Duration(env.Rand().Int63n(int64(d)/2 + 1))
	if n.cfg.AcquireDeadline > 0 {
		if remaining := n.waitStart + n.cfg.AcquireDeadline - env.Now(); remaining < d {
			d = remaining
		}
		if d < 0 {
			d = 0
		}
	}
	return d
}

// decaySuspects ages out suspicions older than SuspectTTL, letting
// crashed-then-restarted arbiters rejoin quorum picks.
func (n *Node) decaySuspects(env cluster.Env) {
	if n.cfg.SuspectTTL < 0 {
		return
	}
	now := env.Now()
	n.req.suspects.ForEach(func(m int) {
		if now-n.req.suspectAt[m] >= n.cfg.SuspectTTL {
			n.req.suspects.Remove(m)
		}
	})
}

// issue picks a quorum among non-suspect nodes and requests every member.
func (n *Node) issue(env cluster.Env) {
	n.clock++
	n.req.id = ReqID{TS: n.clock, Origin: n.id}
	n.req.failed = false
	n.req.deferred = nil
	n.req.grants = bitset.New(n.universe())
	n.req.owed = bitset.New(n.universe())
	n.req.responded = bitset.New(n.universe())

	n.decaySuspects(env)
	live := n.req.suspects.Complement()
	q, err := n.pick(env.Rand(), live)
	if err != nil {
		// No quorum among unsuspected nodes: clear suspicions and retry
		// from scratch (suspects may have recovered).
		n.req.sawNoQuorum = true
		n.req.suspects.Clear()
		q, err = n.pick(env.Rand(), bitset.Universe(n.universe()))
		if err != nil {
			panic("dmutex: full universe has no quorum")
		}
	}
	ep := n.epochNow()
	n.req.quorum = q
	q.ForEach(func(member int) {
		env.Send(cluster.NodeID(member), msgRequest{Epoch: ep, ID: n.req.id})
	})
	env.After(n.attemptTimeout(env), tokenRetry{ID: n.req.id})
}

// retry abandons the current attempt: releases all members, suspects the
// silent ones and re-issues; past the acquire deadline it abandons the
// acquisition with a typed error instead.
func (n *Node) retry(env cluster.Env) {
	n.Retries++
	// Back off only when the whole quorum went silent — we are cut off or
	// it is dead, and hammering it is pointless. If anyone answered, the
	// attempt failed to contention or message loss, and the recovery path
	// is releasing and re-picking quickly, not waiting: backing off under
	// contention makes requesters sit on partial grants, stalling everyone.
	if n.req.responded.Empty() {
		n.req.attempt++
	} else {
		n.req.attempt = 0
	}
	now := env.Now()
	ep := n.epochNow()
	n.req.quorum.ForEach(func(member int) {
		env.Send(cluster.NodeID(member), msgRelease{Epoch: ep, ID: n.req.id})
		if !n.req.responded.Contains(member) {
			// A member that sent nothing at all within the timeout is
			// suspected crashed; contended members answer with GRANT,
			// FAILED or INQUIRE and stay trusted.
			n.req.suspects.Add(member)
			n.req.opSuspects.Add(member)
			n.req.suspectAt[member] = now
		}
	})
	if n.cfg.AcquireDeadline > 0 && now-n.waitStart >= n.cfg.AcquireDeadline {
		n.failAcquire(env)
		return
	}
	n.issue(env)
}

// failAcquire abandons the acquisition at its deadline (the quorum was
// already released by retry). ErrStaleEpoch when the acquisition was
// rejected by a newer-epoch arbiter and this node's config store never
// caught up; otherwise ErrNoQuorum when every quorum contained a node
// that went silent during the acquisition — judged on the cumulative
// per-acquisition view, since decay and the fallback path shrink the
// instantaneous suspect set — ErrDegraded when neither. The workload
// moves on so Done() still completes.
func (n *Node) failAcquire(env cluster.Env) {
	err := quorum.ErrDegraded
	if n.req.sawStale {
		err = epoch.ErrStaleEpoch
	} else if n.req.sawNoQuorum {
		err = quorum.ErrNoQuorum
	} else if _, e := n.pick(env.Rand(), n.req.opSuspects.Complement()); e != nil {
		err = quorum.ErrNoQuorum
	}
	n.req.active = false
	n.req.remaining--
	if n.cfg.OnFail != nil {
		n.cfg.OnFail(n.id, env.Now(), err)
	}
	if n.req.remaining > 0 {
		env.After(n.cfg.Workload.Think, tokenThink{})
	}
}

func (n *Node) reqGrant(env cluster.Env, from cluster.NodeID, id ReqID) {
	if !n.req.active || n.req.inCS || id != n.req.id {
		// Stale grant from an abandoned attempt: release it.
		if id.Origin == n.id && (!n.req.active || id != n.req.id) {
			env.Send(from, msgRelease{Epoch: n.epochNow(), ID: id})
		}
		return
	}
	n.markResponded(from)
	if n.req.owed.Contains(int(from)) {
		// A GRANT that crossed with our RELINQUISH on a reordered link:
		// we already handed it back, so it must not be counted. (With
		// FIFO links this never triggers.)
		n.req.owed.Remove(int(from))
		return
	}
	n.req.grants.Add(int(from))
	if n.haveAllGrants() {
		n.enterCS(env)
	}
}

func (n *Node) haveAllGrants() bool {
	return n.req.quorum.SubsetOf(n.req.grants)
}

// markResponded records any reply from a quorum member of the current
// attempt (the basis of crash suspicion).
func (n *Node) markResponded(from cluster.NodeID) {
	if n.req.responded.Cap() > 0 {
		n.req.responded.Add(int(from))
	}
}

func (n *Node) reqFailed(env cluster.Env, from cluster.NodeID, id ReqID, ep uint64) {
	if !n.req.active || n.req.inCS || id != n.req.id {
		return
	}
	if n.cfg.Epochs != nil && ep > n.cfg.Epochs.Epoch() {
		// An arbiter ahead of us rejected the request: our quorum was
		// picked under a superseded config. Remember it so the deadline
		// reports ErrStaleEpoch — retries re-pick through the shared
		// store, which the co-located rkv node is catching up.
		n.req.sawStale = true
	}
	n.markResponded(from)
	n.req.failed = true
	// Answer deferred inquiries: hand those grants back. An arbiter whose
	// GRANT has not arrived yet (reordered link) is marked owed so the
	// late grant is discarded on arrival.
	for _, a := range n.req.deferred {
		if !n.req.grants.Contains(int(a)) {
			n.req.owed.Add(int(a))
		}
		n.req.grants.Remove(int(a))
		env.Send(a, msgRelinquish{Epoch: n.epochNow(), ID: n.req.id})
	}
	n.req.deferred = nil
	_ = from
}

func (n *Node) reqInquire(env cluster.Env, from cluster.NodeID, id ReqID) {
	if n.req.active && id == n.req.id {
		n.markResponded(from)
	}
	if id.Origin == n.id && (!n.req.active || id != n.req.id) {
		// An INQUIRE for a request we abandoned (our RELEASE was lost):
		// hand the grant back so the arbiter is not stuck forever.
		env.Send(from, msgRelinquish{Epoch: n.epochNow(), ID: id})
		return
	}
	if !n.req.active || id != n.req.id || n.req.inCS {
		// In the CS: the arbiter will get our RELEASE when we leave. Answer
		// busy so a reclaiming arbiter does not mistake us for crashed.
		if n.req.inCS && n.req.active && id == n.req.id {
			env.Send(from, msgBusy{Epoch: n.epochNow(), ID: id})
		}
		return
	}
	if n.req.failed {
		if !n.req.grants.Contains(int(from)) {
			n.req.owed.Add(int(from))
		}
		n.req.grants.Remove(int(from))
		env.Send(from, msgRelinquish{Epoch: n.epochNow(), ID: n.req.id})
		return
	}
	// Still winning: keep the grant, but tell the arbiter we are alive
	// (repeated probes must keep hearing busy, even once deferred).
	env.Send(from, msgBusy{Epoch: n.epochNow(), ID: id})
	for _, a := range n.req.deferred {
		if a == from {
			return
		}
	}
	n.req.deferred = append(n.req.deferred, from)
}

func (n *Node) enterCS(env cluster.Env) {
	n.req.inCS = true
	n.req.deferred = nil
	n.Entries++
	n.WaitTotal += env.Now() - n.waitStart
	if n.cfg.OnAcquire != nil {
		n.cfg.OnAcquire(n.id, env.Now())
	}
	env.After(n.cfg.Workload.Hold, tokenHold{ID: n.req.id})
}

func (n *Node) exitCS(env cluster.Env) {
	ep := n.epochNow()
	n.req.quorum.ForEach(func(member int) {
		env.Send(cluster.NodeID(member), msgRelease{Epoch: ep, ID: n.req.id})
	})
	if n.cfg.OnRelease != nil {
		n.cfg.OnRelease(n.id, env.Now())
	}
	n.req.inCS = false
	n.req.active = false
	n.req.remaining--
	if n.req.remaining > 0 {
		env.After(n.cfg.Workload.Think, tokenThink{})
	}
}

// Restarted implements the cluster.Network restart hook: the crash killed
// the node's timers, so an in-flight acquisition is abandoned (arbiters
// holding its grants recover through INQUIRE → RELINQUISH, or reclamation)
// and the workload resumes with the next critical section. Arbiter grant
// state survives, but its probe timer died with the crash — re-arm it so
// waiting requests are not stranded.
func (n *Node) Restarted(env cluster.Env) {
	if n.req.active {
		n.req.active = false
		n.req.inCS = false
		n.req.remaining--
	}
	if n.req.remaining > 0 {
		env.After(n.cfg.Workload.Think, tokenThink{})
	}
	n.arb.probing = false
	if n.arb.grantedTo != nil && len(n.arb.queue) > 0 {
		n.armProbe(env)
	}
}

// StartToken returns the timer token that kicks off the node's workload —
// for transports without a cluster.Network (see Node.Start).
func (n *Node) StartToken() any { return tokenStart{} }
