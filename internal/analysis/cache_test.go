package analysis

import (
	"testing"
	"time"
)

// keyedThreshold is a cacheable m-of-n system.
type keyedThreshold struct{ thresholdWord }

func (t keyedThreshold) CacheKey() string { return "test-threshold" }

func TestCachedTransversalCounts(t *testing.T) {
	ResetCache()
	sys := keyedThreshold{thresholdWord{threshold{n: 9, m: 5}}}

	first := CachedTransversalCounts(sys)
	if s := CacheStatsSnapshot(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first call: stats %+v, want 1 miss", s)
	}
	first[0] = 999 // callers own their slice; the cache must not see this

	second := CachedTransversalCounts(sys)
	if s := CacheStatsSnapshot(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("after second call: stats %+v, want 1 miss + 1 hit", s)
	}
	if second[0] == 999 {
		t.Fatal("cache returned the caller-mutated slice")
	}
	want := TransversalCounts(sys)
	for i := range want {
		if second[i] != want[i] {
			t.Fatalf("cached a_%d = %d, want %d", i, second[i], want[i])
		}
	}
}

func TestCachedTransversalCountsUncacheable(t *testing.T) {
	ResetCache()
	sys := thresholdWord{threshold{n: 7, m: 4}} // no CacheKey
	CachedTransversalCounts(sys)
	CachedTransversalCounts(sys)
	if s := CacheStatsSnapshot(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("uncacheable system touched the cache: %+v", s)
	}
}

func TestProgressCallback(t *testing.T) {
	type report struct{ done, total uint64 }
	var reports []report
	SetProgress(func(done, total uint64, _ time.Duration) {
		reports = append(reports, report{done, total})
	})
	defer SetProgress(nil)
	TransversalCounts(thresholdWord{threshold{n: 18, m: 10}}) // 4 blocks
	if len(reports) == 0 {
		t.Fatal("no progress reports delivered")
	}
	last := reports[len(reports)-1]
	if last.done != last.total || last.total != 4 {
		t.Fatalf("final report %+v, want done = total = 4", last)
	}
}
