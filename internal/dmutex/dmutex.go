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
// suspects, and retries with a quorum drawn from the remaining nodes —
// the retry, suspicion and backoff engine is package attempt, shared with
// package rkv. Quorums come from one source, Config.System.
package dmutex

import (
	"fmt"
	"time"

	"hquorum/internal/attempt"
	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
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

// Wire messages. Every message carries exactly one request ID.
type (
	msgRequest    struct{ ID ReqID }
	msgGrant      struct{ ID ReqID }
	msgFailed     struct{ ID ReqID }
	msgInquire    struct{ ID ReqID }
	msgRelinquish struct{ ID ReqID }
	msgRelease    struct{ ID ReqID }
	// msgBusy is a keep-alive: a grantee that received INQUIRE but keeps
	// the grant (it is in the critical section, or still winning) answers
	// busy so the arbiter can tell a live contender from a crashed one.
	msgBusy struct{ ID ReqID }
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

// granteeReclaim is how long, in multiples of RetryTimeout, an arbiter
// waits on probe silence from its grantee before reclaiming the grant.
const granteeReclaim = 8

// Config parameterizes a node.
type Config struct {
	// System (required) supplies quorums; all nodes must share the same
	// construction.
	System quorum.System
	// RetryTimeout bounds how long a requester's attempt waits for a full
	// quorum before releasing and retrying, and doubles as the arbiter's
	// grantee-probe interval (default 500ms). Attempts whose quorum went
	// entirely silent back off exponentially — with jitter drawn from the
	// node's deterministic rng — up to 8×RetryTimeout; attempts that got
	// any reply retry at the base patience, since contention and message
	// loss are recovered by re-picking, not waiting. Silent arbiters are
	// suspected for 4×RetryTimeout, so a crashed-then-restarted arbiter
	// rejoins quorum picks without operator intervention (see package
	// attempt). An arbiter reclaims its grant after 8×RetryTimeout of
	// probe silence from the grantee, so a crashed lock holder cannot
	// wedge the cluster; live grantees answer probes with busy keep-alives
	// and are never reclaimed, but a *partitioned* live grantee can be
	// presumed dead, briefly violating safety — keep 8×RetryTimeout well
	// above expected partition-heal times when that matters.
	RetryTimeout time.Duration
	// AcquireDeadline bounds one acquisition across all its retries. When
	// it expires the attempt is abandoned and reported through OnFail with
	// a typed error instead of retrying forever: quorum.ErrNoQuorum when
	// every quorum contained a replica that went silent during the attempt,
	// quorum.ErrDegraded otherwise. Zero means no deadline.
	AcquireDeadline time.Duration
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
}

// requester is the per-node acquisition state.
type requester struct {
	active    bool
	id        ReqID
	quorum    bitset.Set
	grants    bitset.Set
	owed      bitset.Set // arbiters relinquished before their GRANT arrived
	responded bitset.Set // quorum members that sent any reply this attempt
	failed    bool
	deferred  []cluster.NodeID // arbiters whose INQUIRE we deferred
	inCS      bool
	remaining int
	suspects  attempt.Suspects
	tries     attempt.Op // start, backoff and silent members across attempts
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
}

var _ cluster.Handler = (*Node)(nil)

// NewNode builds a protocol node. Node IDs must be the quorum system's
// element indices 0..n-1.
func NewNode(id cluster.NodeID, cfg Config) (*Node, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("dmutex: config needs a quorum system")
	}
	universe := cfg.System.Universe()
	if int(id) < 0 || int(id) >= universe {
		return nil, fmt.Errorf("dmutex: node %d outside universe %d", id, universe)
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 500 * time.Millisecond
	}
	n := &Node{id: id, cfg: cfg}
	n.req.suspects = attempt.NewSuspects(universe, cfg.RetryTimeout)
	n.req.tries = attempt.NewOp(universe, cfg.RetryTimeout, cfg.AcquireDeadline)
	n.req.remaining = cfg.Workload.Count
	return n, nil
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
		n.arbRequest(env, m.ID)
	case msgRelease:
		n.arbRelease(env, m.ID)
	case msgRelinquish:
		n.arbRelinquish(env, m.ID)
	case msgGrant:
		n.reqGrant(env, from, m.ID)
	case msgFailed:
		n.reqFailed(env, from, m.ID)
	case msgInquire:
		n.reqInquire(env, from, m.ID)
	case msgBusy:
		n.arbBusy(env, m.ID)
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

func (n *Node) arbRequest(env cluster.Env, id ReqID) {
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
		n.arb.lastHeard = env.Now()
		env.Send(id.Origin, msgGrant{ID: id})
		return
	}
	if *n.arb.grantedTo == id {
		// Duplicate (retry after timeout); re-grant.
		env.Send(id.Origin, msgGrant{ID: id})
		return
	}
	n.enqueue(id)
	if id.Less(*n.arb.grantedTo) {
		if !n.arb.inquired {
			n.arb.inquired = true
			env.Send(n.arb.grantedTo.Origin, msgInquire{ID: *n.arb.grantedTo})
		}
	} else {
		env.Send(id.Origin, msgFailed{ID: id})
	}
	n.armProbe(env)
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
// nothing — no RELINQUISH, RELEASE or busy keep-alive — for
// 8×RetryTimeout is presumed crashed and its grant is reclaimed, so a
// dead lock holder cannot wedge every quorum that intersects this
// arbiter.
func (n *Node) arbProbe(env cluster.Env) {
	n.arb.probing = false
	if n.arb.grantedTo == nil || len(n.arb.queue) == 0 {
		return
	}
	if env.Now()-n.arb.lastHeard >= granteeReclaim*n.cfg.RetryTimeout {
		n.grantNext(env)
	} else {
		env.Send(n.arb.grantedTo.Origin, msgInquire{ID: *n.arb.grantedTo})
	}
	if n.arb.grantedTo != nil && len(n.arb.queue) > 0 {
		n.armProbe(env)
	}
}

// arbBusy refreshes the grantee's liveness clock.
func (n *Node) arbBusy(env cluster.Env, id ReqID) {
	if n.arb.grantedTo != nil && *n.arb.grantedTo == id {
		n.arb.lastHeard = env.Now()
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
	n.grantNext(env)
}

func (n *Node) grantNext(env cluster.Env) {
	n.arb.inquired = false
	n.arb.grantedTo = nil
	if len(n.arb.queue) == 0 {
		return
	}
	next := n.arb.queue[0]
	n.arb.queue = n.arb.queue[1:]
	n.arb.grantedTo = &next
	n.arb.lastHeard = env.Now()
	env.Send(next.Origin, msgGrant{ID: next})
}

// ---- Requester side ----

func (n *Node) beginRequest(env cluster.Env) {
	if n.req.active || n.req.remaining == 0 {
		return
	}
	n.req.active = true
	n.req.tries.Begin(env.Now())
	n.issue(env)
}

// pick draws a quorum of the system from live with the node's rng.
func (n *Node) pick(env cluster.Env, live bitset.Set) (bitset.Set, error) {
	return n.cfg.System.Pick(env.Rand(), live)
}

// issue picks a quorum among non-suspect nodes and requests every member.
func (n *Node) issue(env cluster.Env) {
	n.clock++
	n.req.id = ReqID{TS: n.clock, Origin: n.id}
	n.req.failed = false
	n.req.deferred = nil
	universe := n.cfg.System.Universe()
	n.req.grants = bitset.New(universe)
	n.req.owed = bitset.New(universe)
	n.req.responded = bitset.New(universe)

	n.req.suspects.Decay(env.Now())
	q, fellBack, err := n.req.suspects.Pick(func(live bitset.Set) (bitset.Set, error) { return n.pick(env, live) })
	if fellBack {
		// No quorum among unsuspected nodes: clear suspicions and retry
		// from scratch (suspects may have recovered).
		n.req.tries.NoQuorum = true
		n.req.suspects.Clear()
	}
	if err != nil {
		panic("dmutex: full universe has no quorum")
	}
	n.req.quorum = q
	q.ForEach(func(member int) {
		env.Send(cluster.NodeID(member), msgRequest{ID: n.req.id})
	})
	env.After(n.req.tries.Timeout(env.Rand(), env.Now()), tokenRetry{ID: n.req.id})
}

// retry abandons the current attempt: releases all members, suspects the
// silent ones and re-issues; past the acquire deadline it abandons the
// acquisition with a typed error instead.
func (n *Node) retry(env cluster.Env) {
	n.Retries++
	now := env.Now()
	n.req.quorum.ForEach(func(member int) {
		env.Send(cluster.NodeID(member), msgRelease{ID: n.req.id})
	})
	// A member that sent nothing at all within the timeout is suspected
	// crashed; contended members answer with GRANT, FAILED or INQUIRE and
	// stay trusted. Back off only when nobody answered: if anyone did, the
	// attempt failed to contention or message loss, and backing off under
	// contention makes requesters sit on partial grants, stalling everyone.
	silent := n.req.quorum.Clone()
	silent.DifferenceWith(n.req.responded)
	n.req.tries.Missed(&n.req.suspects, silent, n.req.responded.Empty(), now)
	if n.req.tries.Expired(now) {
		n.failAcquire(env)
		return
	}
	n.issue(env)
}

// failAcquire abandons the acquisition at its deadline (the quorum was
// already released by retry) with attempt.Op.Diagnose's typed error. The
// workload moves on so Done() still completes.
func (n *Node) failAcquire(env cluster.Env) {
	err := n.req.tries.Diagnose(func(live bitset.Set) (bitset.Set, error) { return n.pick(env, live) })
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
			env.Send(from, msgRelease{ID: id})
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

func (n *Node) reqFailed(env cluster.Env, from cluster.NodeID, id ReqID) {
	if !n.req.active || n.req.inCS || id != n.req.id {
		return
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
		env.Send(a, msgRelinquish{ID: n.req.id})
	}
	n.req.deferred = nil
}

func (n *Node) reqInquire(env cluster.Env, from cluster.NodeID, id ReqID) {
	if n.req.active && id == n.req.id {
		n.markResponded(from)
	}
	if id.Origin == n.id && (!n.req.active || id != n.req.id) {
		// An INQUIRE for a request we abandoned (our RELEASE was lost):
		// hand the grant back so the arbiter is not stuck forever.
		env.Send(from, msgRelinquish{ID: id})
		return
	}
	if !n.req.active || id != n.req.id || n.req.inCS {
		// In the CS: the arbiter will get our RELEASE when we leave. Answer
		// busy so a reclaiming arbiter does not mistake us for crashed.
		if n.req.inCS && n.req.active && id == n.req.id {
			env.Send(from, msgBusy{ID: id})
		}
		return
	}
	if n.req.failed {
		if !n.req.grants.Contains(int(from)) {
			n.req.owed.Add(int(from))
		}
		n.req.grants.Remove(int(from))
		env.Send(from, msgRelinquish{ID: n.req.id})
		return
	}
	// Still winning: keep the grant, but tell the arbiter we are alive
	// (repeated probes must keep hearing busy, even once deferred).
	env.Send(from, msgBusy{ID: id})
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
	n.WaitTotal += env.Now() - n.req.tries.Start
	if n.cfg.OnAcquire != nil {
		n.cfg.OnAcquire(n.id, env.Now())
	}
	env.After(n.cfg.Workload.Hold, tokenHold{ID: n.req.id})
}

func (n *Node) exitCS(env cluster.Env) {
	n.req.quorum.ForEach(func(member int) {
		env.Send(cluster.NodeID(member), msgRelease{ID: n.req.id})
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
