package rkv

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// DefaultShards is the replica store's default shard count.
const DefaultShards = 16

// slot is one cell of a shard's table: a key's replica state (the highest
// version observed and the value stamped with it) beside the key's tag.
// A zero tag marks an empty slot; an empty slot's version and value are
// zero too, so a lookup that ends on one reads "never written".
type slot struct {
	tag uint64
	key string
	ver Version
	val string
}

// occupied is set in every stored tag, so no key's tag is the empty
// slot's zero.
const occupied = 1 << 63

// shardedMap is the replica-side keyed store: keys hash-partition across
// shards, each shard guarded by its own mutex. The protocol's replica
// operations (lookup, monotonic merge) touch exactly one shard, so
// concurrent operations on different keys proceed in parallel — the
// transport's fast-path delivery (see FastDeliver) calls in from multiple
// reader goroutines at once, and no global lock serializes them.
//
// Each shard is one flat, linearly probed table of slots, grown at a
// constant load factor; keys are never deleted, so there are no
// tombstones. A lookup compares the in-slot tag before the key bytes, so
// a hit usually costs the shard's slice header and one slot. The hash is
// hash/maphash under a per-store random seed: a client that picks keys
// cannot aim them at one shard or one probe chain. The top bits of a
// key's hash choose its shard, the low bits its home slot.
//
// Merges are monotonic (higher Version wins, see Version.Less), so any
// interleaving of concurrent applies converges to the same state — the
// store needs mutexes only for memory safety, never for ordering.
type shardedMap struct {
	seed   maphash.Seed
	shift  uint // a key's shard is its hash >> shift
	shards []mapShard
}

type mapShard struct {
	mu    sync.Mutex
	slots []slot // power-of-two length, never full (see maxLoad)
	used  int    // occupied slots
}

// Tables start at minSlots and double once more than maxLoad/4 of their
// slots would be occupied.
const (
	minSlots = 8
	maxLoad  = 3
)

// newShardedMap builds a store with n shards, rounded up to a power of
// two (minimum 1) so shard selection is a shift, not a modulo.
func newShardedMap(n int) *shardedMap {
	size := 1
	for size < n {
		size <<= 1
	}
	s := &shardedMap{
		seed:   maphash.MakeSeed(),
		shift:  uint(64 - bits.TrailingZeros(uint(size))),
		shards: make([]mapShard, size),
	}
	for i := range s.shards {
		s.shards[i].slots = make([]slot, minSlots)
	}
	return s
}

// locate returns key's shard index and its slot tag.
func (s *shardedMap) locate(key string) (int, uint64) {
	h := maphash.String(s.seed, key)
	return int(h >> s.shift), h | occupied
}

// find returns the index of key's slot, or of the empty slot where key
// would go. Caller holds sh.mu.
func (sh *mapShard) find(tag uint64, key string) int {
	mask := uint64(len(sh.slots) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		sl := &sh.slots[i]
		if sl.tag == 0 || sl.tag == tag && sl.key == key {
			return int(i)
		}
	}
}

// grow doubles the table and re-places every occupied slot by its tag.
// Caller holds sh.mu.
func (sh *mapShard) grow() {
	old := sh.slots
	sh.slots = make([]slot, 2*len(old))
	mask := uint64(len(sh.slots) - 1)
	for i := range old {
		if old[i].tag == 0 {
			continue
		}
		j := old[i].tag & mask
		for sh.slots[j].tag != 0 {
			j = (j + 1) & mask
		}
		sh.slots[j] = old[i]
	}
}

// get returns the key's current version and value (zero Version and ""
// for a key never written).
func (s *shardedMap) get(key string) (Version, string) {
	i, tag := s.locate(key)
	sh := &s.shards[i]
	sh.mu.Lock()
	sl := &sh.slots[sh.find(tag, key)]
	ver, val := sl.ver, sl.val
	sh.mu.Unlock()
	return ver, val
}

// apply merges a versioned write: the value is installed iff ver is newer
// than what the shard holds. Reports whether the entry changed.
func (s *shardedMap) apply(key string, ver Version, val string) bool {
	return s.applyLogged(key, ver, val, nil)
}

// applyLogged is apply with a durability hook: when the merge installs
// the entry, logfn runs while the shard lock is still held. Any handler
// that later observes the new entry is therefore ordered after its log
// append, so the commit round that handler's ack waits for covers this
// record too — without the hook a concurrent observer could acknowledge
// a value whose record was not yet in the log. Entries the merge
// rejects (not newer) log nothing: whoever installed them already did.
//
// The store owns what it keeps: a new key and an installed value are
// cloned, so no stored string pins the frame it was decoded from (codec
// decodes in place), and a rejected merge copies nothing.
func (s *shardedMap) applyLogged(key string, ver Version, val string, logfn func()) bool {
	i, tag := s.locate(key)
	sh := &s.shards[i]
	sh.mu.Lock()
	sl := &sh.slots[sh.find(tag, key)]
	switch {
	case sl.tag == 0:
		if (sh.used+1)*4 > len(sh.slots)*maxLoad {
			sh.grow()
			sl = &sh.slots[sh.find(tag, key)]
		}
		sh.used++
		sl.tag, sl.key = tag, strings.Clone(key)
	case !sl.ver.Less(ver):
		sh.mu.Unlock()
		return false
	}
	sl.ver, sl.val = ver, strings.Clone(val)
	if logfn != nil {
		logfn()
	}
	sh.mu.Unlock()
	return true
}

// eachInShard runs fn over every entry of shard i while holding its lock
// — the disk backend's checkpoint dump, which must read each shard under
// the same lock its appends take. The order is the table's, which the
// seed scrambles: callers that need an order sort.
func (s *shardedMap) eachInShard(i int, fn func(key string, ver Version, val string)) {
	sh := &s.shards[i]
	sh.mu.Lock()
	for j := range sh.slots {
		if sl := &sh.slots[j]; sl.tag != 0 {
			fn(sl.key, sl.ver, sl.val)
		}
	}
	sh.mu.Unlock()
}

// count returns the shard count (after power-of-two rounding).
func (s *shardedMap) count() int { return len(s.shards) }

// dump snapshots every stored entry as items sorted by key — deterministic
// iteration order for reconfiguration state sync. Each shard is locked
// only while it is copied.
func (s *shardedMap) dump() []item {
	var items []item
	for i := range s.shards {
		s.eachInShard(i, func(k string, ver Version, val string) {
			items = append(items, item{Key: k, Ver: ver, Val: val})
		})
	}
	sortItems(items)
	return items
}

// sortItems orders items by key (keys are unique in every caller).
func sortItems(items []item) {
	slices.SortFunc(items, func(a, b item) int { return strings.Compare(a.Key, b.Key) })
}

// lenKeys counts stored keys across all shards (tests and introspection;
// not a hot path).
func (s *shardedMap) lenKeys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.used
		sh.mu.Unlock()
	}
	return total
}
