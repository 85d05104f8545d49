package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestTornTailEveryOffset cuts the single log at every byte offset —
// modeling a write torn anywhere by a crash — and asserts recovery
// stops cleanly at the last fully-valid record: no error, no garbage
// record, and the torn tail physically truncated so later appends don't
// strand bytes behind it.
func TestTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	l := open(t, base, Options{Shards: 4})
	recs := []Record{
		put(0, "first", 1, 3, "value-one"),
		put(3, "second", 2, 3, "value-two"),
		{Kind: KindClock, Counter: 4096},
		put(1, "torn", 3, 3, "value-three"),
	}
	ends := []int{0} // ends[i]: file length once the first i records are in
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+len(AppendRecord(nil, r)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	whole, err := os.ReadFile(filepath.Join(base, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != ends[len(recs)] {
		t.Fatalf("segment is %d bytes, records encode to %d", len(whole), ends[len(recs)])
	}

	after := put(2, "after", 9, 3, "post-crash")
	for cut := 0; cut <= len(whole); cut++ {
		intact := 0
		for intact < len(recs) && ends[intact+1] <= cut {
			intact++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lr := open(t, dir, Options{Shards: 4})
		want := noShard(recs[:intact])
		if got := collect(t, lr); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: replay = %+v, want the %d intact records", cut, got, intact)
		}
		// The torn bytes must be gone from disk: recovery truncates to
		// the last valid record so new appends extend valid history.
		if err := lr.Commit(after); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		lr.Abandon()
		if fi, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || fi.Size() != int64(ends[intact]+len(AppendRecord(nil, after))) {
			t.Fatalf("cut %d: segment size after recovery+append = %v (err %v), torn tail not truncated", cut, fi.Size(), err)
		}
		lr2 := open(t, dir, Options{Shards: 4})
		want2 := append(want, noShard([]Record{after})...)
		if got := collect(t, lr2); !reflect.DeepEqual(got, want2) {
			t.Fatalf("cut %d: replay after post-crash append = %+v, want %+v", cut, got, want2)
		}
		lr2.Abandon()
	}
}

// TestCrashAtEveryCheckpointStep kills the log at each point of a
// checkpoint — after the rotation, after snap.tmp is written, after the
// rename, after each segment delete — reopens the directory and requires
// replay to merge to exactly the acknowledged state, then the same after
// a second, completed checkpoint on the recovered log.
func TestCrashAtEveryCheckpointStep(t *testing.T) {
	// Acknowledged history: overwrites across several sealed segments, a
	// clock lease in the oldest one, and a half-written snap.tmp from an
	// earlier attempt lying around.
	var history []Record
	for i := 0; i < 12; i++ {
		history = append(history, put(i%4, fmt.Sprintf("k%d", i%5), uint64(i+1), 1, fmt.Sprintf("value-%02d", i)))
	}
	want := map[string]Record{"": {Kind: KindClock, Counter: 777}}
	for _, r := range noShard(history) {
		want[r.Key] = r
	}
	var live []Record // what a correct dump emits: the newest version per key
	for k, r := range want {
		if k != "" {
			live = append(live, r)
		}
	}
	crash := errors.New("crash")
	for _, tc := range []struct {
		point string
		nth   int
	}{{"rotated", 1}, {"written", 1}, {"renamed", 1}, {"deleted", 1}, {"deleted", 2}, {"deleted", 3}} {
		t.Run(fmt.Sprintf("%s-%d", tc.point, tc.nth), func(t *testing.T) {
			dir := t.TempDir()
			l := open(t, dir, Options{SegmentBytes: 64, SnapshotEvery: -1})
			if err := os.WriteFile(filepath.Join(dir, snapTmp), []byte("half a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(Record{Kind: KindClock, Counter: 777}); err != nil {
				t.Fatal(err)
			}
			for _, r := range history {
				if err := l.Commit(r); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(fileNames(t, dir)); n < 4 {
				t.Fatalf("only %d segments before the checkpoint; the delete steps need at least 3 retired ones", n)
			}
			seen := 0
			l.SetHook(func(point string) error {
				if point == tc.point {
					if seen++; seen == tc.nth {
						return crash
					}
				}
				return nil
			})
			if err := l.Checkpoint(dumpOf(live...)); !errors.Is(err, crash) {
				t.Fatalf("Checkpoint = %v, want the injected crash", err)
			}
			l.Abandon()

			l2 := open(t, dir, Options{SnapshotEvery: -1})
			if got := merged(t, l2); !reflect.DeepEqual(got, want) {
				t.Fatalf("state after crash at %s #%d:\n got %+v\nwant %+v", tc.point, tc.nth, got, want)
			}
			if _, err := os.Stat(filepath.Join(dir, snapTmp)); !os.IsNotExist(err) {
				t.Fatalf("snap.tmp survived Open: %v", err)
			}
			if err := l2.Checkpoint(dumpOf(live...)); err != nil {
				t.Fatal(err)
			}
			l2.Abandon()
			if names := fileNames(t, dir); len(names) != 2 {
				t.Fatalf("after a completed checkpoint the directory holds %v", names)
			}
			l3 := open(t, dir, Options{})
			defer l3.Abandon()
			if got := merged(t, l3); !reflect.DeepEqual(got, want) {
				t.Fatalf("state after the follow-up checkpoint:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFuzzyCheckpointUnderWriters runs checkpoints while writers apply
// and append under per-shard locks the way the replica store does, then
// crashes and requires replay to merge to every acknowledged write —
// the superset argument under real interleavings (and -race).
func TestFuzzyCheckpointUnderWriters(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 512, SnapshotEvery: -1})
	const shards, writers, each = 4, 4, 150
	var locks [shards]sync.Mutex
	var store [shards]map[string]Record
	for i := range store {
		store[i] = map[string]Record{}
	}
	dump := func(emit func(Record)) {
		for i := range store {
			locks[i].Lock()
			for _, r := range store[i] {
				emit(r)
			}
			locks[i].Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := (w + i) % shards
				r := put(0, fmt.Sprintf("s%d-k%d", s, i%7), uint64(i*writers+w+1), uint64(w), "v")
				locks[s].Lock()
				if cur, ok := store[s][r.Key]; !ok || cur.Counter < r.Counter {
					store[s][r.Key] = r
					if err := l.Append(r); err != nil {
						t.Errorf("append: %v", err)
					}
				}
				locks[s].Unlock()
				if err := l.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	ckpts := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				ckpts <- n
				return
			default:
				if err := l.Checkpoint(dump); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
				n++
			}
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-ckpts; n == 0 {
		t.Fatal("no checkpoint ran")
	}
	l.Abandon()
	want := map[string]Record{}
	for i := range store {
		for k, r := range store[i] {
			want[k] = r
		}
	}
	l2 := open(t, dir, Options{})
	defer l2.Abandon()
	if got := merged(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state differs from the acknowledged one: %d keys vs %d", len(got), len(want))
	}
}
