package wal

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkCommit is the WAL layer's unit of work as a replica drives
// it: one quorum batch — 8 records on 8 distinct map shards — appended
// and then committed, from 1 committer (every op pays its own fsync)
// and from 8 (rounds coalesce). One op is one committed batch;
// fsyncs/op is the layer's counted cost, ns/op its wall-clock one on
// this machine's file system.
func BenchmarkCommit(b *testing.B) {
	for _, committers := range []int{1, 8} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Shards: 16, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Abandon()
			batches := make([][]Record, committers)
			for c := range batches {
				for s := 0; s < 8; s++ {
					batches[c] = append(batches[c], put(s, fmt.Sprintf("c%d-key-%04d", c, s), 1, uint64(c), "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				n := b.N / committers
				if c < b.N%committers {
					n++
				}
				wg.Add(1)
				go func(batch []Record, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						for _, r := range batch {
							if err := l.Append(r); err != nil {
								b.Error(err)
								return
							}
						}
						if err := l.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}(batches[c], n)
			}
			wg.Wait()
			b.StopTimer()
			st := l.Stats()
			b.ReportMetric(float64(st.FileSyncs)/float64(b.N), "fsyncs/op")
			b.ReportMetric(float64(st.Appends)/float64(st.SyncRounds), "records/round")
		})
	}
}
