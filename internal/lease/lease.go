// Package lease implements per-shard read leases for the replicated
// store: a holder that has been granted a lease on a shard serves reads
// for that shard straight from its local store — zero network messages —
// while writers to a leased shard must first run a synchronous
// invalidation round against every holder (or wait for the lease to
// provably expire) before their write phase may start.
//
// The package is a pure state machine: no clocks, no sockets, no
// goroutines. Time enters as explicit time.Duration instants (the
// simulator's virtual clock or a transport node's monotonic clock), so
// the same code is deterministic under the nemesis harness and
// wall-clock-safe on TCP. The rkv client owns the driving glue: wire
// messages, quorum picks, the grant and renew waves, the grant's state
// transfer, and the write-path invalidation phase.
//
// Safety rests on four rules (DESIGN.md §17 has the full argument):
//
//  1. A lease activates only after EVERY current member has recorded it
//     (all-ack grant wave), so every future writer's own table blocks
//     its writes until the holders ack an invalidation or the entries
//     expire.
//  2. Leases are exclusive per shard: members nack a grant that
//     overlaps any other live entry, so at most one holder serves a
//     shard and a freshness push cannot race another holder.
//  3. Before activating, the holder runs one state transfer over the
//     granted shards: it pulls them from a read quorum, merges them with
//     its own store, and pushes the merge to a write quorum — so every
//     version it can serve locally is quorum-replicated and later quorum
//     reads can never run behind a local read.
//  4. Expiry is conservative on both sides: the holder stops serving at
//     waveSent+TTL on its own clock; members hold the blocking entry
//     until receive+TTL+slack on theirs, so a bounded clock-rate drift
//     (slack/TTL) cannot open a window where a write proceeds while a
//     holder still serves.
package lease

import (
	"sort"
	"time"

	"hquorum/internal/cluster"
)

// MaxShards is the hard ceiling on the shard-mask width: masks are a
// single uint64 so membership checks and invalidation overlaps are one
// AND instruction.
const MaxShards = 64

// Config tunes a node's lease behavior. Member-side participation
// (recording entries, acking grants, blocking writes) is always on —
// it costs nothing when no leases exist — so Config only governs the
// holder side: whether this node acquires leases and on what cadence.
type Config struct {
	// Shards is the lease-shard count keys hash into (1..MaxShards).
	// Orthogonal to the store's data shards; coarser is cheaper to
	// invalidate, finer blocks fewer writers.
	Shards int
	// TTL is how long a lease serves after the grant wave is sent.
	TTL time.Duration
	// Check is the holder policy tick: how often to consider granting,
	// renewing, or lapsing.
	Check time.Duration
	// MinReadFrac is the workload-window read fraction at or above
	// which the policy grants/renews (read-heavy). Below it, held
	// leases are dropped (write-heavy windows shouldn't pay
	// invalidation rounds). Zero defaults to 0.75; a negative value
	// means always grant regardless of the measured mix — chaos and
	// bench cells that must hold leases under any workload, and
	// holders whose traffic arrives only after the lease exists
	// (gateway sessions bootstrapping).
	MinReadFrac float64
	// MinOps is the minimum workload-window op count before the mix is
	// trusted. Zero means "always grant" (the window's idle default
	// read fraction of 0.5 then decides against MinReadFrac).
	MinOps uint64
	// Acquire turns the holder policy on for this node.
	Acquire bool
	// StartQuarantine blocks this node's write coordination for
	// TTL+slack after construction: a real process restart loses the
	// member table, so until every lease it might have recorded has
	// provably expired, writes must assume unknown holders exist.
	// kvd sets this; the simulator models table loss explicitly.
	StartQuarantine bool
}

// WithDefaults fills zero fields with production defaults.
func (c Config) WithDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	if c.TTL <= 0 {
		c.TTL = 2 * time.Second
	}
	if c.Check <= 0 {
		c.Check = c.TTL / 4
	}
	if c.MinReadFrac == 0 {
		c.MinReadFrac = 0.75
	}
	return c
}

// Quarantine is how long a node that lost its member table must block
// write coordination: the longest any entry it might have held could
// still be serving on a drifting holder clock.
func (c Config) Quarantine() time.Duration { return c.TTL + Slack(c.TTL) }

// Slack is the member-side safety margin added on top of a lease's TTL
// when computing the blocking entry's expiry: the member holds the
// entry for TTL+slack after receive, which covers clock-RATE drift up
// to slack/TTL (12.5%) between holder and member monotonic clocks —
// absolute clock offsets cancel because both sides measure a duration
// from their own receive/send instant.
func Slack(ttl time.Duration) time.Duration { return ttl / 8 }

// KeyHash is the unseeded FNV-1a of key. It is the same in every
// process, so holder and members agree on ShardOf, and a simulated run's
// workload profile (rkv's tuner window keys on it) replays exactly; the
// replica store's data shards use a seeded hash of their own, and the two
// are unrelated. Written out rather than hash/fnv so that it allocates
// nothing and inlines on the per-op path.
func KeyHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// ShardOf maps a key to its lease shard in an nshards-wide space.
func ShardOf(key string, nshards int) int {
	if nshards <= 1 {
		return 0
	}
	return int(KeyHash(key) % uint64(nshards))
}

// Bit returns the mask bit for one shard.
func Bit(shard int) uint64 { return 1 << uint(shard) }

// MaskAll returns the mask covering every shard.
func MaskAll(nshards int) uint64 {
	if nshards >= MaxShards {
		return ^uint64(0)
	}
	return (uint64(1) << uint(nshards)) - 1
}

// Entry is one recorded lease at a member: holder H may serve shards in
// Mask (over a Shards-wide space) until Expiry on this member's clock.
// Until then, any write this member coordinates that overlaps Mask must
// first collect H's invalidation ack.
type Entry struct {
	Seq    uint64        // grant-wave sequence (dedupe/replace)
	Epoch  uint64        // config epoch the lease was granted under
	Mask   uint64        // leased shards
	Shards int           // shard-space width Mask is expressed in
	Expiry time.Duration // member-local instant the entry stops blocking
}

// Table is the member side: every node keeps one and consults it before
// each write phase it coordinates. Entries outlive config epochs on
// purpose — an old lease keeps blocking writes until invalidated or
// expired even if the cluster has since moved on.
type Table struct {
	entries map[cluster.NodeID]Entry
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[cluster.NodeID]Entry)}
}

// Record installs the entry for holder. A live existing entry from the
// same holder (same shard width, not yet expired at now) is merged, not
// replaced: the masks union and the expiry keeps the later instant. A
// holder's waves carry partial masks — a re-grant for one shard it lost
// to an invalidation, or a renewal computed before a concurrent grant
// wave was acked — and replacing the entry would erase the member's
// knowledge of the holder's other live shards, letting a writer skip
// the invalidation barrier on exactly those shards. Bits leave the
// table only through ClearBits, Drop, Reset, or expiry; until then the
// entry is a deliberate over-approximation of what the holder serves
// (an extra invalidation round is a round-trip, a missing one is a
// stale read). An expired or differently-sharded entry is replaced
// outright.
func (t *Table) Record(holder cluster.NodeID, e Entry, now time.Duration) {
	if old, ok := t.entries[holder]; ok && now < old.Expiry && old.Shards == e.Shards {
		e.Mask |= old.Mask
		if old.Expiry > e.Expiry {
			e.Expiry = old.Expiry
		}
	}
	t.entries[holder] = e
}

// Get returns holder's entry.
func (t *Table) Get(holder cluster.NodeID) (Entry, bool) {
	e, ok := t.entries[holder]
	return e, ok
}

// Drop removes holder's entry entirely.
func (t *Table) Drop(holder cluster.NodeID) {
	delete(t.entries, holder)
}

// ClearBits removes mask's shards from holder's entry, dropping the
// entry once no shards remain.
func (t *Table) ClearBits(holder cluster.NodeID, mask uint64) {
	e, ok := t.entries[holder]
	if !ok {
		return
	}
	e.Mask &^= mask
	if e.Mask == 0 {
		delete(t.entries, holder)
	} else {
		t.entries[holder] = e
	}
}

// Reset drops every entry (simulated table loss on a disk restart; the
// caller is responsible for the matching write quarantine).
func (t *Table) Reset() {
	t.entries = make(map[cluster.NodeID]Entry)
}

// Len returns the number of live entries.
func (t *Table) Len() int { return len(t.entries) }

// Holders returns the holders with entries, sorted for deterministic
// iteration under the simulator.
func (t *Table) Holders() []cluster.NodeID {
	ids := make([]cluster.NodeID, 0, len(t.entries))
	for id := range t.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Covered returns the union of every unexpired entry's shards expressed
// in a space-wide mask — the shards a prospective holder must not
// request (leases are exclusive per shard). An entry recorded under a
// different shard-space width conservatively covers everything: shard
// boundaries don't line up across widths, so any overlap must block.
func (t *Table) Covered(space int, now time.Duration) uint64 {
	var m uint64
	for _, e := range t.entries {
		if now >= e.Expiry {
			continue
		}
		if e.Shards != space {
			return MaskAll(space)
		}
		m |= e.Mask
	}
	return m
}

// Overlapping returns the holders whose unexpired entries cover a shard
// of a write's keys, in ID order, each with the shards that overlap — the
// holders a write phase must invalidate first. keysMask returns the
// union of the keys' shard bits in an nshards-wide space (Bit(ShardOf));
// it is asked once per live entry, and not at all while the table is
// empty. Expired entries it meets are dropped.
func (t *Table) Overlapping(keysMask func(nshards int) uint64, now time.Duration) (holders []cluster.NodeID, masks []uint64) {
	if len(t.entries) == 0 {
		return nil, nil
	}
	for _, h := range t.Holders() {
		e := t.entries[h]
		if now >= e.Expiry {
			delete(t.entries, h)
			continue
		}
		if overlap := e.Mask & keysMask(e.Shards); overlap != 0 {
			holders = append(holders, h)
			masks = append(masks, overlap)
		}
	}
	return holders, masks
}

// Holder wave phases. A grant runs wave→transfer→active: once every
// member acked, the glue makes the shards fresh (rkv's state transfer)
// and then calls Activate or Abort. A renewal is wave→active (held shards
// are continuously fresh — any completed write would have invalidated
// them — so no transfer is needed).
type holdPhase int

const (
	holdIdle holdPhase = iota
	holdGrantWave
	holdRenewWave
	holdTransfer
)

// AckResult is Holder.OnAck's verdict on an incoming grant/renew ack.
type AckResult int

const (
	// AckIgnored: stale or duplicate ack; no state change.
	AckIgnored AckResult = iota
	// AckWait: counted; more members still outstanding.
	AckWait
	// AckDone: every member has acked; advance the wave.
	AckDone
	// AckFailed: a member nacked; the wave was aborted.
	AckFailed
)

// Holder is the acquiring side's state machine: at most one wave (grant
// or renew, or a grant's transfer) in flight at a time, plus the
// currently active lease. The rkv glue drives it from the node's event
// loop, so no locking here.
type Holder struct {
	cfg Config

	ph      holdPhase
	seq     uint64
	mask    uint64
	sentAt  time.Duration
	wEpoch  uint64
	pending map[cluster.NodeID]struct{}

	active   uint64
	deadline time.Duration
	epoch    uint64

	cool [MaxShards]time.Duration
}

// NewHolder returns an idle holder.
func NewHolder(cfg Config) *Holder {
	return &Holder{cfg: cfg, pending: make(map[cluster.NodeID]struct{})}
}

// Config returns the holder's (defaulted) configuration.
func (h *Holder) Config() Config { return h.cfg }

// Active returns the mask of shards currently held.
func (h *Holder) Active() uint64 { return h.active }

// Epoch returns the config epoch the active lease was granted under.
func (h *Holder) Epoch() uint64 { return h.epoch }

// Deadline returns the instant the active lease stops serving.
func (h *Holder) Deadline() time.Duration { return h.deadline }

// Idle reports whether no wave is in flight.
func (h *Holder) Idle() bool { return h.ph == holdIdle }

// Seq returns the sequence of the wave awaiting acks (0 when idle, and
// during a grant's transfer: the wave's timer must not abort it).
func (h *Holder) Seq() uint64 { return h.seq }

// Mask returns the in-flight wave's remaining shard mask.
func (h *Holder) Mask() uint64 { return h.mask }

// WaveEpoch returns the epoch the in-flight wave was started under.
func (h *Holder) WaveEpoch() uint64 { return h.wEpoch }

// ServeOK reports whether a read of shard may be served locally right
// now: the shard is held, the lease's epoch is still the config epoch
// (reconfigurations fence local reads immediately), and the holder-side
// deadline has not passed.
func (h *Holder) ServeOK(shard int, epoch uint64, now time.Duration) bool {
	return h.active&Bit(shard) != 0 && h.epoch == epoch && now < h.deadline
}

// SelfKeepOK reports whether the holder's own completed write to shard
// should be applied to the local store to keep the lease serving fresh
// data (instead of invalidating its own lease): the shard is held, or a
// wave for it is in flight — the grant never asks the holder itself, so
// no member nacks for a write the holder has on the wire, and one that
// completes after the pull was served but before activation would be
// missing from the store local reads are about to start from.
func (h *Holder) SelfKeepOK(shard int) bool {
	return (h.active|h.mask)&Bit(shard) != 0
}

// BeginWave starts a grant or renew wave for mask at now, expecting an
// ack from every listed member. With no members (single-node config)
// the wave is immediately ack-complete. The caller must be Idle.
func (h *Holder) BeginWave(renew bool, seq, mask uint64, members []cluster.NodeID, now time.Duration, epoch uint64) {
	h.ph = holdGrantWave
	if renew {
		h.ph = holdRenewWave
	}
	h.seq = seq
	h.mask = mask
	h.sentAt = now
	h.wEpoch = epoch
	h.pending = make(map[cluster.NodeID]struct{}, len(members))
	for _, m := range members {
		h.pending[m] = struct{}{}
	}
}

// Renewing reports whether the in-flight wave is a renewal.
func (h *Holder) Renewing() bool { return h.ph == holdRenewWave }

// OnAck consumes a grant/renew ack. A nack aborts the wave and cools
// the requested shards so the next tick doesn't immediately retry. The
// last ack of a grant moves it to its transfer.
func (h *Holder) OnAck(from cluster.NodeID, seq uint64, ok bool, now time.Duration) AckResult {
	if (h.ph != holdGrantWave && h.ph != holdRenewWave) || seq != h.seq {
		return AckIgnored
	}
	if _, waiting := h.pending[from]; !waiting {
		return AckIgnored
	}
	if !ok {
		h.Abort(now)
		return AckFailed
	}
	delete(h.pending, from)
	if len(h.pending) > 0 {
		return AckWait
	}
	if h.ph == holdGrantWave {
		h.ph, h.seq = holdTransfer, 0
	}
	return AckDone
}

// CompleteRenew finishes an ack-complete renewal: the surviving active
// shards (invalidations may have landed mid-wave) keep serving until
// renewSentAt+TTL.
func (h *Holder) CompleteRenew() {
	h.deadline = h.sentAt + h.cfg.TTL
	h.reset()
}

// Activate completes a grant: the wave's surviving shards join the
// active set and serve until grantSentAt+TTL. It refuses (and aborts)
// if the config epoch moved or every requested shard was invalidated
// while the wave was in flight.
func (h *Holder) Activate(now time.Duration, epoch uint64) bool {
	if epoch != h.wEpoch || h.mask == 0 {
		h.Abort(now)
		return false
	}
	h.active |= h.mask
	h.deadline = h.sentAt + h.cfg.TTL
	h.epoch = h.wEpoch
	h.reset()
	return true
}

// Abort cancels the in-flight wave (timeout, nack, epoch move) and
// cools its shards for one policy tick.
func (h *Holder) Abort(now time.Duration) {
	h.coolMask(h.mask, now+h.cfg.Check)
	h.reset()
}

func (h *Holder) reset() {
	h.ph = holdIdle
	h.seq = 0
	h.mask = 0
	h.pending = make(map[cluster.NodeID]struct{})
}

// Invalidate drops mask's shards from the active set (and from any
// in-flight wave, so a racing grant cannot resurrect them). The cleared
// shards cool for TTL/2 — a writer is active there; re-granting
// immediately would just thrash. Returns the bits actually cleared.
func (h *Holder) Invalidate(mask uint64, now time.Duration) uint64 {
	cleared := (h.active | h.mask) & mask
	h.active &^= mask
	h.mask &^= mask
	h.coolMask(cleared, now+h.cfg.TTL/2)
	return cleared
}

// DropAll releases everything (policy lapse, epoch fence, shutdown) and
// returns the shards that were active so the glue can broadcast a drop.
func (h *Holder) DropAll(now time.Duration) uint64 {
	mask := h.active
	h.active = 0
	h.coolMask(h.mask, now+h.cfg.Check)
	h.reset()
	return mask
}

// ExpireTick clears the active set if the deadline has passed,
// returning the expired shards (zero most ticks).
func (h *Holder) ExpireTick(now time.Duration) uint64 {
	if h.active == 0 || now < h.deadline {
		return 0
	}
	expired := h.active
	h.active = 0
	return expired
}

// NeedRenew reports whether the active lease is inside its renewal
// window (less than half a TTL of serving time left).
func (h *Holder) NeedRenew(now time.Duration) bool {
	return h.active != 0 && now >= h.deadline-h.cfg.TTL/2
}

// Missing returns the shards worth requesting: not held, not cooling.
func (h *Holder) Missing(now time.Duration) uint64 {
	m := MaskAll(h.cfg.Shards) &^ h.active
	for s := 0; s < h.cfg.Shards; s++ {
		if h.cool[s] > now {
			m &^= Bit(s)
		}
	}
	return m
}

func (h *Holder) coolMask(mask uint64, until time.Duration) {
	for s := 0; s < h.cfg.Shards && s < MaxShards; s++ {
		if mask&Bit(s) != 0 && h.cool[s] < until {
			h.cool[s] = until
		}
	}
}

// Reset wipes the holder entirely (crash-restart: holder state never
// survives a restart — the member entries it planted expire on their
// own).
func (h *Holder) Reset() {
	*h = Holder{cfg: h.cfg, pending: make(map[cluster.NodeID]struct{})}
}
