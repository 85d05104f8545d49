package wal

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// BenchmarkCommit is the WAL layer's unit of work as a replica drives
// it: one quorum batch — 8 records on 8 distinct map shards — appended
// and then committed, from 1 committer (every op pays its own fsync)
// and from 8 (rounds coalesce). One op is one committed batch;
// fsyncs/op is the layer's counted cost, ns/op its wall-clock one on
// this machine's file system. Each log is first warmed past one
// rotation, so the timed loop writes in place into a pre-zeroed spare,
// as a replica's log does from a quarter segment after boot on.
func BenchmarkCommit(b *testing.B) {
	for _, committers := range []int{1, 8} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Shards: 16, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Abandon()
			warm(b, l)
			before := l.Stats()
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
			b.ReportMetric(float64(st.FileSyncs-before.FileSyncs)/float64(b.N), "fsyncs/op")
			b.ReportMetric(float64(st.Appends-before.Appends)/float64(st.SyncRounds-before.SyncRounds), "records/round")
		})
	}
}

// warm commits 64 KiB records until a spare is built, then one more,
// which seals the growing first segment and moves the log into the
// spare.
func warm(b *testing.B, l *Log) {
	var acked []Record
	big := put(0, "warm", 1, 0, strings.Repeat("w", 64<<10))
	for l.Stats().Bytes < uint64(l.opts.SegmentBytes)/4 {
		commitAll(b, l, &acked, big)
	}
	if !waitSpare(l) {
		b.Fatal("no spare built")
	}
	commitAll(b, l, &acked, big)
	if !l.prepared {
		b.Fatal("warm-up did not move the log into its spare")
	}
}
