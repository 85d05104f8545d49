package rkv

import (
	"sort"
	"sync"
)

// DefaultShards is the replica store's default shard count.
const DefaultShards = 16

// entry is one key's replica state: the highest version observed and the
// value stamped with it.
type entry struct {
	ver Version
	val string
}

// shardedMap is the replica-side keyed store: keys hash-partition across
// shards, each shard guarded by its own mutex. The protocol's replica
// operations (lookup, monotonic merge) touch exactly one shard, so
// concurrent operations on different keys proceed in parallel — the
// transport's fast-path delivery (see FastDeliver) calls in from multiple
// reader goroutines at once, and no global lock serializes them.
//
// Merges are monotonic (higher Version wins, see Version.Less), so any
// interleaving of concurrent applies converges to the same state — the
// store needs mutexes only for memory safety, never for ordering.
type shardedMap struct {
	shards []mapShard
	mask   uint64
}

type mapShard struct {
	mu sync.Mutex
	m  map[string]entry
}

// newShardedMap builds a store with n shards, rounded up to a power of
// two (minimum 1) so shard selection is a mask, not a modulo.
func newShardedMap(n int) *shardedMap {
	size := 1
	for size < n {
		size <<= 1
	}
	s := &shardedMap{shards: make([]mapShard, size), mask: uint64(size - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]entry)
	}
	return s
}

// hashKey is FNV-1a; inlined rather than hash/fnv to keep the per-message
// path allocation-free.
func hashKey(key string) uint64 {
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

func (s *shardedMap) shard(key string) *mapShard {
	return &s.shards[hashKey(key)&s.mask]
}

// get returns the key's current version and value (zero Version and ""
// for a key never written).
func (s *shardedMap) get(key string) (Version, string) {
	sh := s.shard(key)
	sh.mu.Lock()
	e := sh.m[key]
	sh.mu.Unlock()
	return e.ver, e.val
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
func (s *shardedMap) applyLogged(key string, ver Version, val string, logfn func()) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok || e.ver.Less(ver) {
		sh.m[key] = entry{ver: ver, val: val}
		if logfn != nil {
			logfn()
		}
		sh.mu.Unlock()
		return true
	}
	sh.mu.Unlock()
	return false
}

// withShard runs fn over one shard's map while holding its lock — the
// disk backend's checkpoint dump, which must read each shard under the
// same lock its appends take.
func (s *shardedMap) withShard(i int, fn func(m map[string]entry)) {
	sh := &s.shards[i]
	sh.mu.Lock()
	fn(sh.m)
	sh.mu.Unlock()
}

// count returns the shard count (after power-of-two rounding).
func (s *shardedMap) count() int { return len(s.shards) }

// dump snapshots every stored entry as parallel slices sorted by key —
// deterministic iteration order for reconfiguration state sync. Each
// shard is locked only while it is copied.
func (s *shardedMap) dump() (keys []string, vers []Version, vals []string) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			keys = append(keys, k)
			vers = append(vers, e.ver)
			vals = append(vals, e.val)
		}
		sh.mu.Unlock()
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sk := make([]string, len(keys))
	sv := make([]Version, len(keys))
	sl := make([]string, len(keys))
	for i, j := range order {
		sk[i], sv[i], sl[i] = keys[j], vers[j], vals[j]
	}
	return sk, sv, sl
}

// lenKeys counts stored keys across all shards (tests and introspection;
// not a hot path).
func (s *shardedMap) lenKeys() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}
