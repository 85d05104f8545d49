package rkv

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hquorum/internal/cluster"
)

// TestShardedMapMatchesMap: random applies and gets against a plain Go
// map of the same merge rule, through many table growths, must agree on
// every answer, and the final dump must equal the map's sorted contents.
// The key pool holds "" (the classic register), keys of several
// kilobytes, and keys that differ only in their last byte.
func TestShardedMapMatchesMap(t *testing.T) {
	long := strings.Repeat("x", 3000)
	pool := []string{"", long + "a", long + "b", "k", "k\x00"}
	for i := 0; i < 2000; i++ {
		pool = append(pool, fmt.Sprintf("key-%d", i))
	}
	for _, shards := range []int{1, 4, DefaultShards} {
		s := newShardedMap(shards)
		ref := make(map[string]Version)
		refVal := make(map[string]string)
		rng := rand.New(rand.NewSource(int64(shards)))
		for step := 0; step < 40000; step++ {
			key := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				ver, val := s.get(key)
				if ver != ref[key] || val != refVal[key] {
					t.Fatalf("%d shards, step %d: get(%.12q) = %v %q, want %v %q", shards, step, key, ver, val, ref[key], refVal[key])
				}
				continue
			}
			ver := Version{Counter: uint64(rng.Intn(8)), Writer: cluster.NodeID(rng.Intn(3))}
			val := fmt.Sprintf("v%d", step)
			old, seen := ref[key]
			want := !seen || old.Less(ver)
			if got := s.apply(key, ver, val); got != want {
				t.Fatalf("%d shards, step %d: apply(%.12q, %v) = %t, want %t", shards, step, key, ver, got, want)
			}
			if want {
				ref[key], refVal[key] = ver, val
			}
		}
		if got := s.lenKeys(); got != len(ref) {
			t.Fatalf("%d shards: lenKeys = %d, want %d", shards, got, len(ref))
		}
		items := s.dump()
		want := make([]string, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		if len(items) != len(want) {
			t.Fatalf("%d shards: dump holds %d keys, want %d", shards, len(items), len(want))
		}
		for i, it := range items {
			if k := it.Key; k != want[i] || it.Ver != ref[k] || it.Val != refVal[k] {
				t.Fatalf("%d shards: dump[%d] = %.12q %v %q, want %.12q %v %q", shards, i, k, it.Ver, it.Val, want[i], ref[want[i]], refVal[want[i]])
			}
		}
		grown := 0
		for i := range s.shards {
			if sh := &s.shards[i]; len(sh.slots) > minSlots {
				grown++
			}
			if sh := &s.shards[i]; sh.used*4 > len(sh.slots)*maxLoad {
				t.Fatalf("%d shards: shard %d holds %d keys in %d slots, over the load factor", shards, i, sh.used, len(sh.slots))
			}
		}
		if grown != len(s.shards) {
			t.Fatalf("%d shards: only %d grew past %d slots", shards, grown, minSlots)
		}
	}
}

// BenchmarkReplicaBatch prices a replica's per-key store work as the
// live path does it: 16 stores (one per replica of a 16-node cluster)
// of 4096 keys each, taking turns, each touched by an 8-key batch — a
// phase-1 read's gets or a phase-2 write's applies of a newer version.
// It reports ns/key beside the per-batch allocs.
func BenchmarkReplicaBatch(b *testing.B) {
	const (
		stores = 16
		keys   = 4096
		batch  = 8
	)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%04d", i)
	}
	val := strings.Repeat("v", 64)
	var ss [stores]*shardedMap
	for i := range ss {
		ss[i] = newShardedMap(DefaultShards)
		for _, k := range names {
			ss[i].apply(k, Version{Counter: 1}, val)
		}
	}
	rng := rand.New(rand.NewSource(1))
	picks := make([]string, 1<<16)
	for i := range picks {
		picks[i] = names[rng.Intn(keys)]
	}
	// One counter for every run of the apply benchmark: each apply installs
	// a newer version, never a rejected older one.
	ctr := uint64(1)
	for _, get := range []bool{true, false} {
		name := "apply"
		if get {
			name = "get"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := ss[i%stores]
				for j := 0; j < batch; j++ {
					k := picks[(i*batch+j)&(len(picks)-1)]
					if get {
						s.get(k)
					} else {
						ctr++
						s.apply(k, Version{Counter: ctr}, val)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
		})
	}
}
