// Package rkv implements the replicated-data protocol the hierarchical
// grid was designed for (Kumar–Cheung '91, summarized in §4.1 of the
// paper), grown from the paper's single register into a multi-key store:
// every operation names a key (the empty key is the classic register),
// replicas hold a hash-sharded keyed store, and a client batches many
// keys' operations into one quorum round.
//
//   - Read: query a read quorum (a hierarchical row-cover) and return the
//     key's value with the highest version.
//   - BlindWrite: stamp the value with the writer's logical clock and store
//     it on a write quorum (a hierarchical full-line); concurrent blind
//     writes are allowed and converge to the highest stamp.
//   - Write (read-write): learn the key's current version from a read
//     quorum, then store version+1 on a write quorum. Every row-cover
//     intersects every full-line, so a read that follows a completed write
//     always observes it.
//
// Quorum intersection is per-replica-set, not per-key, so one quorum round
// can carry any number of keys: a batch of K operations costs the same two
// phases — one read-quorum round trip, one write-quorum round trip — as a
// single operation, with the per-key payloads riding the same frames
// (messages msgReadBatch/msgWriteBatch). Batching composes with the
// pipelined op table: a node runs up to Config.Window batches concurrently,
// each batch carrying up to Config.Batch operations.
//
// Replica-side state is a sharded map (Config.Shards shards, per-shard
// mutex, versioned entries): replica processing takes no global lock, so
// the live transport delivers replica messages straight from its socket
// reader goroutines (FastDeliver) and keys on different shards proceed in
// parallel across connections.
//
// Crashed replicas are tolerated with client-side timeouts and re-picked
// quorums: the retry, suspicion and backoff engine is package attempt,
// shared with package dmutex.
package rkv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/internal/attempt"
	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/lease"
	"hquorum/internal/optrace"
	"hquorum/internal/tuner"
	"hquorum/internal/wal"
)

// Version orders writes: higher counters win, writer IDs break ties.
type Version struct {
	Counter uint64
	Writer  cluster.NodeID
}

// maxVersion is above every version a replica can report.
var maxVersion = Version{Counter: ^uint64(0), Writer: cluster.NodeID(^uint(0) >> 1)}

// Less reports whether v is older than o.
func (v Version) Less(o Version) bool {
	if v.Counter != o.Counter {
		return v.Counter < o.Counter
	}
	return v.Writer < o.Writer
}

// Wire messages. Every round is a batch: the paper's single register is
// a batch of one on the empty key. Batch slices are parallel arrays built
// once per phase and never mutated after sending — messages may outlive
// the op that sent them (simulated networks deliver by reference).
//
// Every message carries the sender's configuration epoch (never 0: the
// first config is epoch 1). Replicas serve a request only when the epochs
// match; see Node.gate and package epoch.
type (
	// msgReadBatch asks for the versions of many keys at once (phase 1 of
	// a round).
	msgReadBatch struct {
		Epoch uint64
		Seq   uint64
		Keys  []string
	}
	// msgReadBatchReply answers a msgReadBatch; Vers/Vals are parallel to
	// the request's Keys. Unsynced (disk backend only) says the replica's
	// log held records no commit round had covered yet when it answered: a
	// reported version may be one a restart loses, so the reply is a
	// reading, not the promise a write ack is.
	msgReadBatchReply struct {
		Epoch    uint64
		Seq      uint64
		Unsynced bool
		Vers     []Version
		Vals     []string
	}
	// msgWriteBatch stores many keys' versioned values at once (phase 2);
	// the replica acks with msgWriteAck.
	msgWriteBatch struct {
		Epoch uint64
		Seq   uint64
		Keys  []string
		Vers  []Version
		Vals  []string
	}
	msgWriteAck struct {
		Epoch uint64
		Seq   uint64
	}
)

// Timer tokens.
type (
	tokenNextOp struct{}
	tokenOpDue  struct{ Seq uint64 }
)

// OpKind enumerates the register operations.
type OpKind int

// Register operations.
const (
	OpRead OpKind = iota
	OpWrite
	OpBlindWrite
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpBlindWrite:
		return "blind-write"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one client operation. Key "" is the classic single register.
type Op struct {
	Kind  OpKind
	Key   string
	Value string // for writes
}

// Result reports a completed (or failed) operation to its Submit callback.
type Result struct {
	Node    cluster.NodeID
	Kind    OpKind
	Key     string
	Value   string // for reads: the value returned
	Version Version
	Start   time.Duration // invocation time
	At      time.Duration // completion time
	Retries int
	// Err is non-nil when the operation gave up at its OpDeadline:
	// quorum.ErrNoQuorum when every quorum includes a suspected-dead
	// replica, quorum.ErrDegraded when a quorum of trusted replicas exists
	// but did not answer in time. The operation may still have taken
	// partial effect (failed writes are "maybe" writes).
	Err error
}

// Config parameterizes a replica node.
type Config struct {
	// Epochs (required) is the node's epoch-versioned view of the cluster
	// configuration and its only quorum source: picks route through it
	// (including the two-config union while a reconfiguration is in
	// flight), every frame is stamped with its current epoch, and replica
	// processing is gated on epoch equality with catch-up traffic for
	// mismatches. One store per node, built with epoch.NewStore.
	Epochs *epoch.Store
	// Shards is the replica store's shard count (default DefaultShards,
	// rounded up to a power of two). More shards means less lock
	// contention when the transport delivers replica messages from many
	// reader goroutines at once.
	Shards int
	// Timeout bounds one quorum attempt (default 300ms). Attempts whose
	// quorum went entirely silent back off exponentially — with jitter
	// drawn from the node's deterministic rng — up to 8×Timeout; attempts
	// that got any reply retry at the base patience, since loss is
	// recovered by re-picking around silent replicas, not waiting. Silent
	// replicas are suspected for 4×Timeout, so a crashed-then-restarted
	// replica rejoins quorum picks without operator intervention (see
	// package attempt).
	Timeout time.Duration
	// OpDeadline bounds one client operation across all its retries. When
	// it expires the operation's callback gets a typed Result.Err instead
	// of the round retrying forever. Zero means no deadline (retry until
	// the cluster heals).
	OpDeadline time.Duration
	// ReadWriteback makes a read complete only after storing the version
	// it observed on a full write quorum (ABD-style write-back). Without
	// it a read concurrent with a partially-applied write can be followed
	// by a read observing the older value — a linearizability violation.
	// Costs one write round per read, unless the read's quorum contains a
	// write quorum and agrees on the version (the write-back is then
	// already in place: see readConfirmed); the nemesis chaos scenarios
	// enable it because their checker demands linearizability.
	ReadWriteback bool
	// Window is the maximum number of client rounds in flight at once
	// (default 1: strictly sequential, the classic closed-loop client).
	// Larger windows pipeline independent rounds — each gets its own
	// phases, quorums and deadline — which multiplies throughput when
	// round-trips, not the replicas, are the bottleneck.
	Window int
	// Batch is the maximum number of queued operations coalesced into one
	// quorum round (default 1). A batch shares one quorum pick and one
	// frame per peer per phase: K keys amortize the round's fixed cost.
	// Operations sharing a batch are concurrent in the formal sense — like
	// pipelined windows, a linearizability checker must treat them as
	// separate clients.
	Batch int
	// OpGap is the pause between a round finishing and the next launch
	// while submitted operations are still queued; a positive gap also
	// launches one batch per tick instead of filling the window at once
	// (default 1ms; negative means none). Drivers that pace their own
	// submissions — the chaos runner, load generators — run with -1.
	OpGap time.Duration
	// PickCost, when non-empty, is a per-member round-trip cost estimate
	// indexed by global node ID (e.g. a measured or modeled one-way link
	// latency ×2). With PickSamples > 1 it makes quorum picks cost-aware:
	// each pick takes the epoch store's cheapest quorum instead of a
	// random one, where a quorum's cost is the cost of its slowest member
	// (a quorum round completes when the slowest member answers), with the
	// total cost as tie-break and the node's rng among what is still tied.
	// A read may then ride a write quorum where the store's write quorums
	// pairwise intersect. Missing entries count as zero. The pick cache
	// composes: the cheap pick is what gets cached and reused while the
	// view is unchanged.
	PickCost []time.Duration
	// PickSamples > 1 switches the cost-aware pick on when PickCost is
	// set. The pick is exact, so the count itself is ignored — it is
	// what the replaced best-of-N sampling drew — and only "more than
	// one" still matters to callers written against it.
	PickSamples int
	// Storage selects the replica store backend: "memory" (or empty, the
	// default) keeps today's in-memory behavior byte for byte; "disk"
	// backs the shard map with a write-ahead log under DataDir — group
	// commit makes one fsync cover every quorum batch that arrived during
	// the previous one, and a restarted node replays the log instead of
	// coming back empty.
	Storage string
	// DataDir is the disk backend's directory (required for "disk").
	DataDir string
	// SnapshotEvery checkpoints the store and truncates the log after
	// this many appended records (default 4096 per shard; negative
	// disables).
	SnapshotEvery int
	// WALNoSync makes the disk backend write without fsync. The
	// deterministic simulation runs with it on: its crash model kills a
	// process, not the machine, so write()-visible bytes are exactly
	// what survives and fsync buys no extra fidelity — only syscalls.
	// Real deployments (kvd) leave it off.
	WALNoSync bool
	// AutoTune, when set, makes this node a tuning coordinator: it
	// profiles the workload it serves and, when the tuner's policy says a
	// different quorum configuration beats the current one under the
	// measured mix, drives an epoch reconfiguration to it. Enable it on
	// one node per cluster — rival coordinators are safe but waste
	// transitions. Nodes without it still profile, so their windows are
	// visible to quorumctl and the metrics endpoint.
	AutoTune *tuner.Policy
	// Lease, when set, configures this node's read-lease holder: on
	// read-heavy workload windows it acquires per-shard read leases and
	// serves leased reads from its local store with zero messages; its
	// own writes on leased shards take their version from the local store
	// too, one quorum round instead of two (see internal/lease and
	// lease.go). Only the holder side is optional —
	// every node always participates as a lease member (recording grants,
	// blocking writes to leased shards), so clusters can mix holders and
	// non-holders freely.
	Lease *lease.Config
	// TraceSample enables server-side op tracing (internal/optrace) at a
	// 1-in-N sampling rate: sampled operations get per-stage timing
	// records folded into mergeable histograms, visible on the metrics
	// endpoint. Zero or negative disables (each potential stamp site then
	// costs one atomic load). The rate can be changed live through
	// Tracer().SetSample.
	TraceSample int
}

// ErrNoEpochs is NewNode's error for a Config without an epoch store.
var ErrNoEpochs = errors.New("rkv: config needs an epoch store (Config.Epochs)")

// ErrRestarted reports a submitted operation abandoned because its
// coordinator node was crash-restarted mid-round.
var ErrRestarted = errors.New("rkv: coordinator restarted")

// phase of an in-flight client round.
type phase int

const (
	phaseReadVersions phase = iota + 1
	phaseWrite
	// phaseInval precedes phaseWrite when the batch's keys overlap leased
	// shards: the round blocks until every overlapped holder acks the
	// invalidation (or its lease provably expires). See lease.go.
	phaseInval
)

// subOp is one submitted operation inside a batch round.
type subOp struct {
	kind   OpKind
	key    string
	value  string // for writes: the value to install
	needP1 bool   // participates in the version-read phase
	done   bool   // result already reported (plain reads finish at phase 1)

	// cb receives this sub-operation's Result (see Submit). Callbacks run
	// on the node's event goroutine and must not block.
	cb func(Result)

	bestVer Version // highest version observed (reads) or stamped (writes)
	bestVal string
	// lowVer is the lowest version the current phase-1 attempt's members
	// reported: equal to bestVer once the quorum is complete, they all
	// hold the same one (and no earlier attempt heard a higher).
	lowVer Version
}

// extOp is a submitted operation waiting to be launched.
type extOp struct {
	op Op
	cb func(Result)
}

// opState is one in-flight batch round: up to Config.Batch sub-operations
// sharing the phase machine, quorum, deadline and retry state. The struct
// (and its bitsets) are recycled through the node's freelist; the wire
// slices (p1Keys, p2*) are built fresh per batch because sent messages
// alias them.
type opState struct {
	subs []subOp
	seq  uint64 // current attempt's key in Node.inflight
	ph   phase

	quorum  bitset.Set
	pending bitset.Set // members not yet answered
	epoch   uint64     // the epoch quorum was picked under, stamped on the attempt's frames
	// covers: the current phase-1 attempt's quorum contains a write quorum
	// (only tracked under ReadWriteback, where it lets unanimous reads
	// finish without their write-back). A member answering from versions
	// it has not made durable (msgReadBatchReply.Unsynced) clears it for
	// the attempt: what such a quorum says it holds, a restart can lose.
	covers bool

	p1Subs []int    // indices into subs, parallel to p1Keys
	p1Keys []string // phase-1 wire keys (immutable once built)
	p2Keys []string // phase-2 wire payload (immutable once built)
	p2Vers []Version
	p2Vals []string

	retries int
	tries   attempt.Op // start, backoff and silent members across attempts

	// rec is the round's sampled trace record (nil when unsampled): the
	// quorum stage spans launch to retirement across every phase and
	// retry, the lease stage the invalidation barrier. Folded in putOp —
	// the single retirement point — so no completion path can leak it.
	rec *optrace.Rec
}

// pickCache remembers the last successful quorum pick per flavor, keyed by
// (epoch, suspect-set fingerprint). Back-to-back rounds against an
// unchanged view reuse the set with one bitset copy — no rng draws, no
// allocation; any timeout, suspicion change or epoch bump changes the key
// and forces a fresh draw (an epoch bump can change flavor and membership
// wholesale, so a cached quorum from the previous config must never leak
// into the new one). The price is load concentration: repeated rounds
// from one client land on one quorum until something fails.
type pickCache struct {
	valid  bool
	epoch  uint64
	fp     uint64
	q      bitset.Set
	covers bool // read picks: q contains a write quorum (see opState.covers)
}

// Node is a replica (and optionally a client).
type Node struct {
	id  cluster.NodeID
	cfg Config

	// Replica state: the sharded keyed store plus the logical clock.
	// Both are safe for concurrent use — the transport's fast path
	// (FastDeliver) runs replica processing on its reader goroutines
	// while the event loop runs the client machine.
	store *shardedMap
	clock atomic.Uint64

	// Disk backend (nil on the memory backend — see durable.go).
	// walLease is the durable clock lease bound: counters this node may
	// stamp without another lease commit. Event-goroutine only.
	wal      *wal.Log
	walLease uint64

	// Client state: the op table. seq increments per quorum attempt and
	// keys inflight, so a reply or timer either finds its exact attempt or
	// nothing — stale messages miss the map instead of needing phase
	// checks against a single current op.
	seq      uint64
	inflight map[uint64]*opState
	free     []*opState

	suspects attempt.Suspects
	picks    [2]pickCache    // cached read [0] / write [1] quorum
	cost     []time.Duration // non-nil on a cost-aware config: picks take the cheapest quorum
	// readCovers is the last read pick's covers bit: while it is set reads
	// can end at phase 1, and fillBatch keeps them out of the writes'
	// rounds so the saved round frees its window slot.
	readCovers bool
	// pickHits/pickMisses count cache-served vs freshly drawn quorum
	// picks. Atomics: the metrics endpoint reads them off-loop.
	pickHits   atomic.Uint64
	pickMisses atomic.Uint64
	// oneRoundReads counts reads finished at phase 1 because their quorum
	// covered a write quorum and agreed on the version. Atomic as above.
	oneRoundReads atomic.Uint64

	// profile is the sliding-window workload profiler (always on — it is
	// a few counters); tune is the auto-tune driver, nil unless
	// Config.AutoTune is set.
	profile *tuner.Window
	tune    *tuner.Driver

	// Submission (Submit): extQ is the producer side, appended under
	// extMu from any goroutine; the event loop drains it into extRun
	// (event-goroutine-only) and launches from there. extKick collapses
	// concurrent wakes into one.
	extMu   sync.Mutex
	extQ    []extOp
	extKick bool
	wake    func()
	extRun  []extOp

	// rc is the reconfiguration coordinator's state machine (see
	// reconfig.go); zero while no reconfiguration is being driven.
	rc reconfigState

	// Lease state (see lease.go). lt is the member-side table — always
	// present. lh is the holder, nil unless Config.Lease is set.
	// leaseBlockedUntil is the write quarantine: until it passes, every
	// write this node coordinates assumes an unknown lease may exist
	// (set after losing the table to a disk-backend restart, or at boot
	// with Config.Lease.StartQuarantine). leaseMaxExpiry is the
	// high-water expiry of every entry ever recorded — the quarantine
	// bound a restart falls back to. leaseMerged accumulates the grant
	// pull's merged shard state. All event-goroutine only.
	lt                *lease.Table
	lh                *lease.Holder
	leaseBlockedUntil time.Duration
	leaseMaxExpiry    time.Duration
	leaseMerged       map[string]mergedVal

	// Lease counters. Atomics: the metrics endpoint reads them off-loop.
	leaseGrants        atomic.Uint64
	leaseRenewals      atomic.Uint64
	leaseLocalReads    atomic.Uint64
	leaseInvalRounds   atomic.Uint64
	leaseExpiries      atomic.Uint64
	leaseLocalVersions atomic.Uint64

	// leaseRouteMask mirrors the holder's active shard mask for
	// LeasedRead, the off-loop routing hint gateways consult when
	// choosing a session; leaseShards is its (immutable) shard count.
	leaseRouteMask atomic.Uint64
	leaseShards    int

	// trace is the node's op tracer (never nil; disabled unless
	// Config.TraceSample > 0). The transport discovers it through the
	// optrace.Source interface and stamps its stages into the same set.
	trace *optrace.Tracer
}

var _ cluster.Handler = (*Node)(nil)

// NewNode builds a replica.
func NewNode(id cluster.NodeID, cfg Config) (*Node, error) {
	epochs := cfg.Epochs
	if epochs == nil {
		return nil, ErrNoEpochs
	}
	space := epochs.Universe()
	if int(id) < 0 || int(id) >= space {
		return nil, fmt.Errorf("rkv: node %d outside universe %d", id, space)
	}
	var cost []time.Duration
	if len(cfg.PickCost) > 0 && cfg.PickSamples > 1 {
		cost = cfg.PickCost
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 300 * time.Millisecond
	}
	if cfg.OpGap == 0 {
		cfg.OpGap = time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	span := 2 * time.Second
	if cfg.AutoTune != nil {
		pol := cfg.AutoTune.WithDefaults()
		cfg.AutoTune = &pol
		span = pol.Span
	}
	n := &Node{
		id:       id,
		cfg:      cfg,
		store:    newShardedMap(cfg.Shards),
		inflight: make(map[uint64]*opState),
		suspects: attempt.NewSuspects(space, cfg.Timeout),
		cost:     cost,
		profile:  tuner.NewWindow(span),
		trace:    optrace.New(cfg.TraceSample),
	}
	if cfg.AutoTune != nil {
		n.tune = tuner.NewDriver(*cfg.AutoTune)
	}
	// Every node is a lease member; only holders need a config.
	n.lt = lease.NewTable()
	if cfg.Lease != nil {
		lcfg := cfg.Lease.WithDefaults()
		n.cfg.Lease = &lcfg
		if lcfg.Acquire {
			n.lh = lease.NewHolder(lcfg)
			n.leaseShards = lcfg.Shards
		}
		if lcfg.StartQuarantine {
			// A real process restart always loses the member table; block
			// coordinated writes until any pre-boot lease must have expired.
			n.leaseBlockedUntil = lcfg.Quarantine()
		}
	}
	// Disk backend: open the WAL and replay it into the store before
	// the node serves anything (no-op for the memory backend).
	if err := n.openStorage(); err != nil {
		return nil, err
	}
	return n, nil
}

// Start arms the node's own timers on the simulated network: the tune
// evaluation loop on auto-tuning nodes, the lease policy tick on
// holders. Client operations arrive through Submit.
func (n *Node) Start(net *cluster.Network) error {
	if n.tune != nil {
		if err := net.StartTimer(n.id, n.cfg.AutoTune.Interval, tokenTune{}); err != nil {
			return err
		}
	}
	if n.lh != nil {
		return net.StartTimer(n.id, n.cfg.Lease.Check, tokenLeaseTick{})
	}
	return nil
}

// Done reports whether the node's client work is answered: no round in
// flight and nothing drained left to launch (ops still in Submit's
// producer buffer arrive with their own wake).
func (n *Node) Done() bool {
	return len(n.inflight) == 0 && len(n.extRun) == 0
}

// Inflight returns the number of client rounds currently executing.
func (n *Node) Inflight() int { return len(n.inflight) }

// SetWake installs the function Submit uses to wake the node's event
// loop (e.g. scheduling the node's StartToken on its transport). Call it
// once, before the first Submit; the wake function must be safe to call
// from any goroutine.
func (n *Node) SetWake(fn func()) { n.wake = fn }

// Submit hands the node one client operation; it is the only way an
// operation enters the node. It is safe to call from any goroutine.
// Queued operations coalesce into the windowed, batched rounds — up to
// Window rounds of up to Batch operations each — and cb receives the
// Result (on the event goroutine: it must not block). Submit promises
// no order between operations whose callbacks the caller did not await:
// a lease answers the reads it covers at admission, and while reads end
// early batches fill with one kind of operation. A caller that needs
// sequential semantics waits for cb before submitting again.
func (n *Node) Submit(op Op, cb func(Result)) {
	n.extMu.Lock()
	n.extQ = append(n.extQ, extOp{op: op, cb: cb})
	kick := !n.extKick
	n.extKick = true
	wake := n.wake
	n.extMu.Unlock()
	if kick && wake != nil {
		wake()
	}
}

// drainExt moves submitted ops to the event-loop-only run queue.
// Resetting extKick here re-arms the wake: a Submit racing with this
// drain either lands in the batch we just took or issues a fresh wake
// for the next one.
func (n *Node) drainExt() {
	n.extMu.Lock()
	if len(n.extQ) > 0 {
		n.extRun = append(n.extRun, n.extQ...)
		n.extQ = n.extQ[:0]
	}
	n.extKick = false
	n.extMu.Unlock()
}

// extPending reports event-loop-visible queued work (launch-side only;
// extQ is counted when its wake fires).
func (n *Node) extPending() bool { return len(n.extRun) > 0 }

// Value returns the replica's stored value and version for the classic
// register (key ""), for tests.
func (n *Node) Value() (string, Version) {
	ver, val := n.store.get("")
	return val, ver
}

// ValueKey returns the replica's stored value and version for a key.
func (n *Node) ValueKey(key string) (string, Version) {
	ver, val := n.store.get(key)
	return val, ver
}

// mergeClock raises the logical clock to at least c.
func (n *Node) mergeClock(c uint64) {
	for {
		cur := n.clock.Load()
		if c <= cur || n.clock.CompareAndSwap(cur, c) {
			return
		}
	}
}

func (n *Node) nextClock() uint64 { return n.clock.Add(1) }

// epochNow returns the node's current configuration epoch, stamped onto
// every outgoing frame.
func (n *Node) epochNow() uint64 { return n.cfg.Epochs.Epoch() }

// gate runs serve iff the sender's configuration epoch matches ours.
// A stale sender is rejected with our config attached (msgStaleEpoch) so
// it can install it and retry under the new quorums; when we are the
// stale side, the request is dropped and we ask the (newer) sender for
// its config — the sender's attempt timeout covers the retry. serve runs
// under the epoch store's read lock, so an admitted request finishes
// applying before any concurrent config install completes (the ordering
// the reconfiguration snapshot relies on).
func (n *Node) gate(env cluster.Env, from cluster.NodeID, e, seq uint64, serve func()) {
	switch n.cfg.Epochs.Serve(e, serve) {
	case epoch.VerdictSenderStale:
		cfg := n.cfg.Epochs.Snapshot()
		env.Send(from, msgStaleEpoch{Seq: seq, Cfg: cfg.Encode(nil)})
	case epoch.VerdictSelfStale:
		env.Send(from, msgConfigReq{Epoch: n.cfg.Epochs.Epoch()})
	}
}

// handleReplica processes the replica half of the protocol. It touches
// only the sharded store, the atomic clock and the (lock-guarded) epoch
// store, so it is safe to call concurrently from transport reader
// goroutines (FastDeliver) as well as from the event loop. Reports
// whether msg was a replica message.
func (n *Node) handleReplica(env cluster.Env, from cluster.NodeID, msg any) bool {
	switch m := msg.(type) {
	case msgReadBatch:
		n.gate(env, from, m.Epoch, m.Seq, func() {
			rec := optrace.From(env)
			rec.Tag(optrace.KindRead, len(m.Keys), m.Epoch)
			vers := make([]Version, len(m.Keys))
			vals := make([]string, len(m.Keys))
			rec.Begin(optrace.StageLock)
			for i, k := range m.Keys {
				vers[i], vals[i] = n.store.get(k)
			}
			rec.End(optrace.StageLock)
			// After the gets: an entry is appended to the log under the map
			// lock that installed it, so a log synced now holds all of vers.
			unsynced := n.wal != nil && !n.wal.Synced()
			env.Send(from, msgReadBatchReply{Epoch: m.Epoch, Seq: m.Seq, Unsynced: unsynced, Vers: vers, Vals: vals})
		})
	case msgWriteBatch:
		if len(m.Vers) != len(m.Keys) || len(m.Vals) != len(m.Keys) {
			return true // malformed (hostile frame): ignore, still a replica msg
		}
		n.gate(env, from, m.Epoch, m.Seq, func() {
			rec := optrace.From(env)
			rec.Tag(optrace.KindWrite, len(m.Keys), m.Epoch)
			var maxC uint64
			ok := true
			rec.Begin(optrace.StageLock)
			for i, k := range m.Keys {
				if m.Vers[i].Counter > maxC {
					maxC = m.Vers[i].Counter
				}
				ok = n.applyPut(k, m.Vers[i], m.Vals[i]) && ok
			}
			rec.End(optrace.StageLock)
			n.mergeClock(maxC)
			// Durable before ack: on the disk backend the ack is the
			// durability promise a restarted replica must honor. One ack
			// for the whole batch, released by the commit round that
			// covers its K records — group commit.
			if ok {
				n.ackDurable(env, from, msgWriteAck{Epoch: m.Epoch, Seq: m.Seq})
			}
		})
	case msgSnapReq:
		// Reconfiguration state sync: served only at the exact (joint)
		// epoch, so every write admitted under the old config is already
		// applied when the snapshot is taken.
		n.gate(env, from, m.Epoch, m.Seq, func() {
			keys, vers, vals := n.store.dump()
			env.Send(from, msgSnapReply{Seq: m.Seq, Keys: keys, Vers: vers, Vals: vals})
		})
	case msgLeasePull:
		// Lease freshness pull: store-only, safe on the fast path.
		n.onLeasePullServe(env, from, m)
	case msgConfigPush:
		n.onConfigPush(env, from, m)
	case msgConfigReq:
		n.onConfigReq(env, from, m)
	case msgWorkloadReq:
		// Diagnostics: not epoch-gated, answered straight off the profiler.
		env.Send(from, msgWorkloadReply{
			Seq: m.Seq,
			Wl:  n.profile.Snapshot(env.Now()).Encode(nil),
			Cfg: n.cfg.Epochs.Snapshot().Encode(nil),
		})
	default:
		return false
	}
	return true
}

// FastDeliver implements the transport's optional fast-path interface:
// replica messages are handled inline on the transport's reader goroutine
// — sharded store, no event-loop hop — while client messages (replies,
// acks) return false and take the ordered event queue. See
// transport.FastDeliverer.
func (n *Node) FastDeliver(env cluster.Env, from cluster.NodeID, msg any) bool {
	return n.handleReplica(env, from, msg)
}

// Deliver implements cluster.Handler.
func (n *Node) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	if n.handleReplica(env, from, msg) {
		return
	}
	switch m := msg.(type) {
	case msgReadBatchReply:
		n.onReadBatchReply(env, from, m)
	case msgWriteAck:
		n.onWriteAck(env, from, m)
	case msgStaleEpoch:
		n.onStaleEpoch(env, m)
	case msgConfigAck:
		n.rcOnConfigAck(env, from, m)
	case msgSnapReply:
		n.rcOnSnapReply(env, from, m)
	case msgReconfig:
		n.onReconfigRequest(env, from, m)
	case msgReconfigDone:
		// Consumed by ReconfigClient handlers; a replica can hear a stray
		// one when a requester retried through it — drop it.
	case msgWorkloadReply:
		// Consumed by WorkloadClient handlers; stray ones are dropped.
	case msgLeaseGrant:
		n.onLeaseRequest(env, from, m.Epoch, m.Seq, m.Mask, m.Shards, m.TTLus, false)
	case msgLeaseRenew:
		n.onLeaseRequest(env, from, m.Epoch, m.Seq, m.Mask, m.Shards, m.TTLus, true)
	case msgLeaseInval:
		n.onLeaseInval(env, from, m)
	case msgLeaseAck:
		n.onLeaseAck(env, from, m)
	case msgLeasePullReply:
		n.onLeasePullReply(env, from, m)
	case msgLeaseDrop:
		n.onLeaseDrop(from, m)
	default:
		panic(fmt.Sprintf("rkv: unknown message %T", msg))
	}
}

// Timer implements cluster.Handler.
func (n *Node) Timer(env cluster.Env, token any) {
	switch tk := token.(type) {
	case tokenNextOp:
		n.launchNext(env)
	case tokenOpDue:
		if op, ok := n.inflight[tk.Seq]; ok {
			n.retryPhase(env, op)
		}
	case tokenReconfig:
		n.startReconfig(env, tk.Target, 0, 0, false)
	case tokenTune:
		n.onTune(env)
	case tokenReconfigDue:
		n.rcTimeout(env, tk.Seq)
	case tokenLeaseTick:
		n.onLeaseTick(env)
	case tokenLeaseDue:
		n.onLeaseDue(env, tk.Seq)
	default:
		panic(fmt.Sprintf("rkv: unknown timer token %T", token))
	}
}

// onStaleEpoch handles a replica's rejection of one of our frames: adopt
// the newer config it attached, then immediately re-run the round's
// current phase — fresh seq, fresh quorum under the new config. Only the
// first rejection of an attempt restarts it (later ones carry a seq the
// op table no longer knows). Past the op deadline the round fails with
// the typed ErrStaleEpoch instead.
func (n *Node) onStaleEpoch(env cluster.Env, m msgStaleEpoch) {
	if cfg, err := epoch.DecodeConfig(m.Cfg); err == nil {
		if _, err := n.cfg.Epochs.Install(cfg); err != nil {
			return // hostile or malformed config: keep ours
		}
	} else {
		return
	}
	op, ok := n.inflight[m.Seq]
	if !ok {
		return
	}
	op.retries++
	if op.tries.Expired(env.Now()) {
		n.failOp(env, op, epoch.ErrStaleEpoch)
		return
	}
	switch op.ph {
	case phaseReadVersions:
		n.startReadPhase(env, op)
	case phaseWrite:
		n.startWritePhase(env, op)
	case phaseInval:
		// Re-run the barrier under the new config: targets are recomputed
		// from the live table, so an expired lease stops blocking.
		if !n.startInvalPhase(env, op) {
			n.startWritePhase(env, op)
		}
	}
}

// launchNext starts rounds from the submitted ops while the window has
// room. With a positive OpGap launches are spaced one per timer tick;
// without a gap the window fills immediately. Reads the lease answers
// are served before the window is even consulted.
func (n *Node) launchNext(env cluster.Env) {
	n.drainExt()
	n.leaseAdmit(env)
	for n.extPending() && len(n.inflight) < n.cfg.Window {
		n.launchBatch(env)
		if n.cfg.OpGap > 0 {
			if n.extPending() && len(n.inflight) < n.cfg.Window {
				env.After(n.cfg.OpGap, tokenNextOp{})
			}
			return
		}
	}
}

// getOp takes an opState from the freelist (or builds one); its bitsets
// are already sized for the universe.
func (n *Node) getOp() *opState {
	if len(n.free) > 0 {
		op := n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
		return op
	}
	u := n.cfg.Epochs.Universe()
	return &opState{
		quorum:  bitset.New(u),
		pending: bitset.New(u),
		tries:   attempt.NewOp(u, n.cfg.Timeout, n.cfg.OpDeadline),
	}
}

func (n *Node) putOp(op *opState) {
	op.subs = op.subs[:0]
	op.seq = 0
	op.ph = 0
	op.retries = 0
	op.covers = false
	op.p1Subs = op.p1Subs[:0]
	// Sent frames alias the wire slices and may outlive the op: drop them,
	// never recycle the backing arrays.
	op.p1Keys = nil
	op.p2Keys, op.p2Vers, op.p2Vals = nil, nil, nil
	// Fold the round's trace here — putOp is the one retirement point
	// every completion path (finish, fail, crash-restart) funnels through.
	op.rec.Done()
	op.rec = nil
	n.free = append(n.free, op)
}

// launchBatch pulls up to Config.Batch queued operations into one quorum
// round and starts its first phase.
func (n *Node) launchBatch(env cluster.Env) {
	op := n.getOp()
	op.tries.Begin(env.Now())
	n.fillBatch(op)
	if op.rec = n.trace.Sample(); op.rec != nil {
		kind := optrace.KindRead
		for i := range op.subs {
			if op.subs[i].kind != OpRead {
				kind = optrace.KindWrite
				break
			}
		}
		op.rec.Tag(kind, len(op.subs), n.epochNow())
		op.rec.Begin(optrace.StageQuorum)
	}
	n.profile.ObserveBatch(env.Now(), len(op.subs))
	// On actively leased shards the local store answers right here: reads
	// complete, writes get their version without a phase 1.
	n.leaseServeLocal(env, op)
	// Phase-1 membership and wire keys are fixed for the batch's lifetime;
	// retries resend the same (immutable) slice.
	for i := range op.subs {
		if op.subs[i].needP1 && !op.subs[i].done {
			op.p1Subs = append(op.p1Subs, i)
		}
	}
	if len(op.p1Subs) > 0 {
		for _, i := range op.p1Subs {
			op.p1Keys = append(op.p1Keys, op.subs[i].key)
		}
		n.startReadPhase(env, op)
		return
	}
	// No phase 1 left: blind writes, locally versioned writes and locally
	// served reads only.
	n.buildPhase2(env, op)
	if len(op.p2Keys) == 0 {
		// The whole batch was served locally.
		n.finishRound(env, op)
		return
	}
	n.enterWritePhase(env, op)
}

// fillBatch builds a round from up to Config.Batch submitted
// operations, in queue order. While the node's read picks cover
// a write quorum (readCovers) a round's reads can end after phase 1, but
// the round keeps its window slot until its writes' phase 2 is acked —
// so the batch then takes only ops of the head's kind (reads, or writes
// of either sort) and leaves the others queued in order: read rounds
// retire after one round trip and free their slot. Otherwise nothing
// ends early and purity would only shrink batches.
func (n *Node) fillBatch(op *opState) {
	headRead := n.extRun[0].op.Kind == OpRead
	kept := n.extRun[:0]
	j := 0
	for ; j < len(n.extRun) && len(op.subs) < n.cfg.Batch; j++ {
		e := n.extRun[j]
		if n.readCovers && (e.op.Kind == OpRead) != headRead {
			kept = append(kept, e)
			continue
		}
		sub := subOp{kind: e.op.Kind, key: e.op.Key, value: e.op.Value, cb: e.cb}
		switch e.op.Kind {
		case OpRead, OpWrite:
			sub.needP1 = true
		case OpBlindWrite:
			// Stamped at launch; rides phase 2 only.
			sub.bestVer = Version{Counter: n.nextClock(), Writer: n.id}
			sub.bestVal = e.op.Value
		}
		op.subs = append(op.subs, sub)
	}
	kept = append(kept, n.extRun[j:]...)
	clear(n.extRun[len(kept):]) // drop the taken callbacks' references
	n.extRun = kept
}

// rekey gives op a fresh attempt sequence number and files it in the op
// table under it. Replies and timer tokens carrying any older seq now miss
// the table entirely — that one lookup replaces all staleness checks.
func (n *Node) rekey(op *opState) {
	if op.seq != 0 {
		delete(n.inflight, op.seq)
	}
	n.seq++
	op.seq = n.seq
	n.inflight[op.seq] = op
}

// startReadPhase queries a read quorum for the batch's keys' versions.
func (n *Node) startReadPhase(env cluster.Env, op *opState) {
	n.rekey(op)
	op.ph = phaseReadVersions
	if err := n.pickQuorum(env, op, true); err != nil {
		n.failOp(env, op, err)
		return
	}
	op.quorum.CopyInto(&op.pending)
	// Unanimity is judged within this attempt, whose quorum op.covers
	// describes: start every key's low-water mark afresh.
	for _, i := range op.p1Subs {
		op.subs[i].lowVer = maxVersion
	}
	var msg any = msgReadBatch{Epoch: op.epoch, Seq: op.seq, Keys: op.p1Keys}
	op.quorum.ForEach(func(m int) { env.Send(cluster.NodeID(m), msg) })
	env.After(op.tries.Timeout(env.Rand(), env.Now()), tokenOpDue{Seq: op.seq})
}

// buildPhase2 assembles the batch's write payload: read write-backs keep
// the version they observed, read-write updates stamp a fresh clock past
// everything phase 1 saw, blind writes carry their launch stamp. Reads
// that pay no write-back (plain, or nothing observed) finish with the
// round; those already reported at phase 1 are done and skipped.
func (n *Node) buildPhase2(env cluster.Env, op *opState) {
	wb := 0
	for i := range op.subs {
		sub := &op.subs[i]
		if sub.done {
			continue
		}
		switch sub.kind {
		case OpRead:
			if !n.cfg.ReadWriteback || sub.bestVer == (Version{}) {
				continue
			}
			// ABD write-back: re-store the observed maximum so no later
			// read can observe an older value.
			wb++
		case OpWrite:
			// Bump the clock past everything the read quorum saw for this
			// key, then stamp.
			n.mergeClock(sub.bestVer.Counter)
			sub.bestVer = Version{Counter: n.nextClock(), Writer: n.id}
			sub.bestVal = sub.value
		case OpBlindWrite:
			// Stamped at launch.
		}
		op.p2Keys = append(op.p2Keys, sub.key)
		op.p2Vers = append(op.p2Vers, sub.bestVer)
		op.p2Vals = append(op.p2Vals, sub.bestVal)
	}
	// The profiler's β: how many reads paid a write-back phase.
	if wb > 0 {
		n.profile.ObserveWriteback(env.Now(), wb, 0)
	}
}

// startWritePhase stores the batch's phase-2 payload on a write quorum.
func (n *Node) startWritePhase(env cluster.Env, op *opState) {
	// End is a no-op unless the round actually crossed the invalidation
	// barrier (startInvalPhase began the stage).
	op.rec.End(optrace.StageLease)
	n.rekey(op)
	op.ph = phaseWrite
	// Disk backend: before any stamped version leaves this node, hold a
	// durable clock lease covering it, so a post-crash restart can never
	// re-stamp a counter this round may have spread to remote replicas.
	// The lease is chunked: the commit here is rare, not per round.
	if !n.ensureClockLease(n.clock.Load()) {
		n.failOp(env, op, errStorage)
		return
	}
	if err := n.pickQuorum(env, op, false); err != nil {
		n.failOp(env, op, err)
		return
	}
	op.quorum.CopyInto(&op.pending)
	var msg any = msgWriteBatch{Epoch: op.epoch, Seq: op.seq, Keys: op.p2Keys, Vers: op.p2Vers, Vals: op.p2Vals}
	op.quorum.ForEach(func(m int) { env.Send(cluster.NodeID(m), msg) })
	env.After(op.tries.Timeout(env.Rand(), env.Now()), tokenOpDue{Seq: op.seq})
}

func (n *Node) invalidatePicks() {
	n.picks[0].valid = false
	n.picks[1].valid = false
}

// pickQuorum draws a quorum among unsuspected replicas into op.quorum,
// clearing suspicions if none remains. Consecutive picks of one flavor
// against an unchanged suspect set are served from the pick cache; any
// change to the suspect set — a new suspicion or an expired one — changes
// the fingerprint and forces a fresh draw. op.epoch is the epoch
// the pick was made under, for the attempt's frames. A read pick also
// settles whether the quorum covers a write quorum (op.covers,
// n.readCovers) — evaluated once per fresh pick and kept beside the
// cached one.
func (n *Node) pickQuorum(env cluster.Env, op *opState, read bool) error {
	c := &n.picks[1]
	if read {
		c = &n.picks[0]
	}
	n.suspects.Decay(env.Now())
	fp := n.suspects.Fingerprint()
	ep := n.epochNow()
	op.epoch = ep
	if c.valid && c.fp == fp && c.epoch == ep {
		n.pickHits.Add(1)
		c.q.CopyInto(&op.quorum)
		if read {
			op.covers, n.readCovers = c.covers, c.covers
		}
		return nil
	}
	n.pickMisses.Add(1)
	q, fellBack, err := n.suspects.Pick(func(live bitset.Set) (bitset.Set, error) { return n.pick(env, read, live) })
	if fellBack {
		op.tries.NoQuorum = true
		n.suspects.Clear()
		n.invalidatePicks()
	}
	if err != nil {
		return err
	}
	q.CopyInto(&op.quorum)
	// The bit must describe the config the members will answer under: a
	// config installed since ep was read (installs run off-loop) voids it.
	covers := read && n.cfg.ReadWriteback && n.cfg.Epochs.CoversWrite(q) && n.epochNow() == ep
	if read {
		op.covers, n.readCovers = covers, covers
	}
	if !fellBack {
		q.CopyInto(&c.q)
		c.fp, c.epoch, c.valid, c.covers = fp, ep, true, covers
	}
	return nil
}

// pick draws one read or write quorum from live — at random, or on a
// cost-aware config (PickCost) the cheapest one. It is the node's only
// way to a quorum: rounds, lease waves and the deadline diagnosis all see
// the same families, so none can call dead what another could still use.
func (n *Node) pick(env cluster.Env, read bool, live bitset.Set) (bitset.Set, error) {
	if read {
		return n.cfg.Epochs.PickReadCheapest(env.Rand(), live, n.cost)
	}
	return n.cfg.Epochs.PickWriteCheapest(env.Rand(), live, n.cost)
}

// retryPhase abandons the attempt, suspecting silent members; past the op
// deadline it fails the round with a typed error instead of retrying.
func (n *Node) retryPhase(env cluster.Env, op *opState) {
	op.retries++
	now := env.Now()
	op.tries.Missed(&n.suspects, op.pending, op.pending.Count() == op.quorum.Count(), now)
	// The attempt's quorum let us down: any cached pick may be built on
	// the same dead members, so force a fresh draw.
	n.invalidatePicks()
	if op.tries.Expired(now) {
		n.failOp(env, op, n.deadlineError(env, op))
		return
	}
	switch op.ph {
	case phaseReadVersions:
		n.startReadPhase(env, op)
	case phaseWrite:
		n.startWritePhase(env, op)
	case phaseInval:
		// Recompute the barrier: a holder that never acked eventually
		// expires out of the table, which is the "provably expired"
		// unblocking path for a crashed leaseholder.
		if !n.startInvalPhase(env, op) {
			n.startWritePhase(env, op)
		}
	}
}

// deadlineError diagnoses a deadline miss against the current phase's
// quorum family (attempt.Op.Diagnose).
func (n *Node) deadlineError(env cluster.Env, op *opState) error {
	read := op.ph == phaseReadVersions
	return op.tries.Diagnose(func(live bitset.Set) (bitset.Set, error) { return n.pick(env, read, live) })
}

// reportSub delivers one sub-operation's result to its callback.
func (n *Node) reportSub(env cluster.Env, op *opState, sub *subOp, err error) {
	sub.done = true
	n.observeOp(env, op, sub, err)
	if sub.cb == nil {
		return
	}
	res := Result{
		Node: n.id, Kind: sub.kind, Key: sub.key,
		Start: op.tries.Start, At: env.Now(), Retries: op.retries, Err: err,
	}
	if err == nil {
		res.Value = sub.bestVal
		res.Version = sub.bestVer
	}
	cb := sub.cb
	sub.cb = nil
	cb(res)
}

// failOp reports the round's error for every unfinished sub-operation and
// retires the round.
func (n *Node) failOp(env cluster.Env, op *opState, err error) {
	for i := range op.subs {
		if !op.subs[i].done {
			n.reportSub(env, op, &op.subs[i], err)
		}
	}
	n.finishOp(env, op)
}

// readConfirmed reports whether a read whose phase-1 quorum just completed
// owes no write-back: the quorum contains a write quorum W′ (op.covers)
// and every member answered the same version v in this attempt (a higher
// one remembered from an earlier attempt leaves lowVer < bestVer), from a
// log that had made it durable (an Unsynced reply cleared op.covers: on
// the disk backend a replica serves a write from memory before the fsync
// its ack waits for, and a restart loses that tail). Durable replica
// versions only grow, so W′ holds ≥ v from now on and every later phase 1
// — a read quorum, which meets W′ — sees ≥ v: exactly what the write-back
// would have established, with the acks already in hand. The quorum is
// itself a read quorum, so v is at least every write completed before the
// read began. DESIGN.md §19.
func (n *Node) readConfirmed(env cluster.Env, op *opState, sub *subOp) bool {
	return op.covers && sub.lowVer == sub.bestVer && !n.leaseWritebackOwed(env, sub.key)
}

func (n *Node) onReadBatchReply(env cluster.Env, from cluster.NodeID, m msgReadBatchReply) {
	op, ok := n.inflight[m.Seq]
	if !ok || op.ph != phaseReadVersions || !op.pending.Contains(int(from)) {
		return
	}
	if len(m.Vers) != len(op.p1Keys) || len(m.Vals) != len(op.p1Keys) {
		return // malformed reply: keep waiting, the timer re-picks
	}
	op.pending.Remove(int(from))
	if m.Unsynced {
		op.covers = false
	}
	for j, i := range op.p1Subs {
		sub := &op.subs[i]
		if sub.bestVer.Less(m.Vers[j]) {
			sub.bestVer = m.Vers[j]
			sub.bestVal = m.Vals[j]
		}
		if m.Vers[j].Less(sub.lowVer) {
			sub.lowVer = m.Vers[j]
		}
	}
	if !op.pending.Empty() {
		return
	}
	// Read quorum complete. Plain reads finish here, and under
	// ReadWriteback so do the reads whose write-back a write quorum
	// already holds; the round may still continue into phase 2 for the
	// batch's writes and the reads that saw disagreement.
	confirmed := 0
	for _, i := range op.p1Subs {
		sub := &op.subs[i]
		if sub.kind != OpRead {
			continue
		}
		if !n.cfg.ReadWriteback {
			n.reportSub(env, op, sub, nil)
		} else if n.readConfirmed(env, op, sub) {
			confirmed++
			n.reportSub(env, op, sub, nil)
		}
	}
	if confirmed > 0 {
		n.oneRoundReads.Add(uint64(confirmed))
		n.profile.ObserveWriteback(env.Now(), 0, confirmed)
	}
	n.buildPhase2(env, op)
	if len(op.p2Keys) == 0 {
		n.finishRound(env, op)
		return
	}
	n.enterWritePhase(env, op)
}

func (n *Node) onWriteAck(env cluster.Env, from cluster.NodeID, m msgWriteAck) {
	if n.rcOnWriteAck(env, from, m) {
		return // ack for the reconfiguration coordinator's state push
	}
	if n.leaseOnWriteAck(env, from, m) {
		return // ack for the lease grant's freshness push
	}
	op, ok := n.inflight[m.Seq]
	if !ok || op.ph != phaseWrite || !op.pending.Contains(int(from)) {
		return
	}
	op.pending.Remove(int(from))
	if !op.pending.Empty() {
		return
	}
	n.finishRound(env, op)
}

// finishRound reports every unfinished sub-operation as successful and
// retires the round.
func (n *Node) finishRound(env cluster.Env, op *opState) {
	n.leaseSelfKeep(env, op)
	for i := range op.subs {
		if !op.subs[i].done {
			n.reportSub(env, op, &op.subs[i], nil)
		}
	}
	n.finishOp(env, op)
}

func (n *Node) finishOp(env cluster.Env, op *opState) {
	delete(n.inflight, op.seq)
	n.putOp(op)
	if n.extPending() {
		gap := n.cfg.OpGap
		if gap < 0 {
			gap = 0
		}
		env.After(gap, tokenNextOp{})
	}
}

// Restarted implements the cluster.Network restart hook: the crash killed
// the node's volatile client state (its timers died with it), so every
// in-flight round is abandoned — its operations fail with ErrRestarted,
// their effects undecided — and the queued operations launch from here.
// On the memory backend replica state (the keyed
// store) survives, modeling ideal stable storage; on the disk backend
// the store is dropped and recovered from the WAL — exactly what a real
// process restart gets, including the loss of any unsynced tail.
func (n *Node) Restarted(env cluster.Env) {
	if n.wal != nil {
		if err := n.reopenDisk(); err != nil {
			// Simulation-only path: the files live in a harness temp
			// dir, so a reopen failure is a harness bug, not a fault to
			// model. Fail loudly rather than serve an empty store.
			panic(fmt.Sprintf("rkv: node %d recovery failed: %v", n.id, err))
		}
	}
	for seq, op := range n.inflight {
		delete(n.inflight, seq)
		// Every op has a caller waiting on its callback: fail it (typed)
		// instead of silently dropping it.
		for i := range op.subs {
			if sub := &op.subs[i]; !sub.done {
				n.reportSub(env, op, sub, ErrRestarted)
			}
		}
		n.putOp(op)
	}
	// A reconfiguration this node was coordinating dies with it. The
	// cluster is left joint at worst — strictly more conservative quorums,
	// still safe — and any coordinator (this one restarted, or another)
	// can resume the transition to the same target later.
	n.rc = reconfigState{}
	n.invalidatePicks()
	n.leaseRestarted(env)
	// A restarted node must not tune on pre-crash traffic, and its tune
	// timer died with the wheel: reset both and re-arm.
	n.profile.Reset()
	if n.tune != nil {
		n.tune.Reset()
		n.armTune(env)
	}
	// Any wake issued before the crash died with the timer wheel: re-arm
	// by draining here and scheduling our own kick if work remains.
	n.drainExt()
	if n.extPending() {
		gap := n.cfg.OpGap
		if gap < 0 {
			gap = 0
		}
		env.After(gap, tokenNextOp{})
	}
}

// StartToken returns the timer token that launches the node's queued
// operations — what a SetWake function schedules on the node's loop.
func (n *Node) StartToken() any { return tokenNextOp{} }
