package analysis

import "sync"

// CacheKeyer is the opt-in contract for the transversal-count memo cache.
// CacheKey must return a string that uniquely determines the availability
// predicate — two systems with equal keys must have identical
// TransversalCounts — or "" when the configuration is not cacheable.
// Structural serializations (shape, dimensions, leaf IDs) satisfy this;
// names alone generally do not.
type CacheKeyer interface {
	CacheKey() string
}

// CacheStats counts memo-cache traffic since the last ResetCache.
type CacheStats struct {
	Hits   uint64 // served from the in-memory map
	Misses uint64 // full enumerations performed
}

var (
	cacheMu       sync.Mutex
	cacheMem      = map[string][]uint64{}
	cacheCounters CacheStats
)

// ResetCache clears the cache and its statistics.
func ResetCache() {
	cacheMu.Lock()
	cacheMem = map[string][]uint64{}
	cacheCounters = CacheStats{}
	cacheMu.Unlock()
}

// CacheStatsSnapshot returns the current cache counters.
func CacheStatsSnapshot() CacheStats {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return cacheCounters
}

// CachedTransversalCounts is TransversalCounts behind the process-wide memo
// cache. Systems that do not implement CacheKeyer (or return "") are
// counted directly; only Paths and Y, which enumerate, have a key. The
// returned slice is the caller's to keep.
func CachedTransversalCounts(sys Availability) []uint64 {
	key := ""
	if k, ok := sys.(CacheKeyer); ok {
		key = k.CacheKey()
	}
	if key == "" {
		return TransversalCounts(sys)
	}
	cacheMu.Lock()
	if c, ok := cacheMem[key]; ok {
		cacheCounters.Hits++
		cacheMu.Unlock()
		return append([]uint64(nil), c...)
	}
	cacheMu.Unlock()
	c := TransversalCounts(sys)
	cacheMu.Lock()
	cacheCounters.Misses++
	cacheMem[key] = append([]uint64(nil), c...)
	cacheMu.Unlock()
	return c
}
