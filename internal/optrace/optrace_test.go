package optrace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every stamp on a nil Rec and nil Tracer is a no-op —
// the sampled-out hot path.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Sample() != nil {
		t.Fatal("nil tracer sampled")
	}
	tr.SetSample(8)
	if tr.SampleEvery() != 0 {
		t.Fatal("nil tracer has a rate")
	}
	snap := tr.Snapshot()
	if len(snap.Stages) != int(NumStages) {
		t.Fatalf("nil snapshot has %d stages, want %d", len(snap.Stages), NumStages)
	}

	var r *Rec
	r.Begin(StageLock)
	r.BeginAt(StageTotal, Clock())
	r.End(StageLock)
	r.Observe(StageFsync, time.Millisecond)
	r.Tag(KindRead, 8, 3)
	r.Done()
}

func TestSamplingRate(t *testing.T) {
	tr := New(4)
	got := 0
	for i := 0; i < 400; i++ {
		if r := tr.Sample(); r != nil {
			got++
			r.Done()
		}
	}
	if got != 100 {
		t.Fatalf("1-in-4 over 400 ops sampled %d, want 100", got)
	}
	tr.SetSample(0)
	for i := 0; i < 100; i++ {
		if tr.Sample() != nil {
			t.Fatal("disabled tracer sampled")
		}
	}
	if every := New(1); every.Sample() == nil {
		t.Fatal("1-in-1 must always sample")
	}
}

func TestStagesFold(t *testing.T) {
	tr := New(1)
	r := tr.Sample()
	r.Tag(KindWrite, 8, 5)
	r.Begin(StageLock)
	time.Sleep(2 * time.Millisecond)
	r.End(StageLock)
	r.Observe(StageFsync, 3*time.Millisecond)
	r.Begin(StageTotal) // left open: Done must close it
	r.Done()

	snap := tr.Snapshot()
	if snap.Sampled != 1 || snap.Writes != 1 || snap.Reads != 0 {
		t.Fatalf("counters: %+v", snap)
	}
	if snap.Epoch != 5 || snap.AvgBatch != 8 {
		t.Fatalf("tags: epoch=%d batch=%v", snap.Epoch, snap.AvgBatch)
	}
	lock := snap.Stages[StageLock.String()]
	if lock.Count != 1 || lock.P50Us < 1000 {
		t.Fatalf("lock stage: %+v", lock)
	}
	if fs := snap.Stages[StageFsync.String()]; fs.Count != 1 || fs.P50Us < 2500 {
		t.Fatalf("fsync stage: %+v", fs)
	}
	if tot := snap.Stages[StageTotal.String()]; tot.Count != 1 {
		t.Fatalf("open total not folded: %+v", tot)
	}
	// Untouched stages are present with zero counts (stable shape).
	if q := snap.Stages[StageQueue.String()]; q.Count != 0 {
		t.Fatalf("queue stage: %+v", q)
	}
	if len(snap.Stages) != int(NumStages) {
		t.Fatalf("stage set: %d want %d", len(snap.Stages), NumStages)
	}
}

func TestEndWithoutBegin(t *testing.T) {
	tr := New(1)
	r := tr.Sample()
	r.End(StageLease) // barrier code Ends unconditionally
	r.Done()
	if st := tr.Snapshot().Stages[StageLease.String()]; st.Count != 0 {
		t.Fatalf("unbegun stage recorded: %+v", st)
	}
}

// TestConcurrentFold hammers Sample/stamp/Done from many goroutines —
// the shape the race detector checks (transport readers + event loop +
// writers all fold into one tracer).
func TestConcurrentFold(t *testing.T) {
	tr := New(2)
	var wg sync.WaitGroup
	const workers, ops = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				r := tr.Sample()
				r.Tag(KindRead, 1, 1)
				r.Begin(StageLock)
				r.End(StageLock)
				r.Done()
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if want := uint64(workers * ops / 2); snap.Sampled != want {
		t.Fatalf("sampled %d, want %d", snap.Sampled, want)
	}
}

// TestSnapshotMergeAndJSON: snapshots merge across nodes through the
// compact wire form and survive a JSON round-trip (the metrics-endpoint
// path: kvd encodes, quorumctl/loadgen decode and merge).
func TestSnapshotMergeAndJSON(t *testing.T) {
	mk := func(lockMs int) Snapshot {
		tr := New(1)
		r := tr.Sample()
		r.Tag(KindRead, 4, 2)
		r.Observe(StageLock, time.Duration(lockMs)*time.Millisecond)
		r.Done()
		return tr.Snapshot()
	}
	a, b := mk(1), mk(3)

	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := decoded.Merge(b); err != nil {
		t.Fatal(err)
	}
	lock := decoded.Stages[StageLock.String()]
	if lock.Count != 2 {
		t.Fatalf("merged lock count %d, want 2", lock.Count)
	}
	if lock.MaxUs < 2900 || lock.P50Us > lock.MaxUs {
		t.Fatalf("merged lock stats: %+v", lock)
	}
	if decoded.Sampled != 2 || decoded.Reads != 2 || decoded.AvgBatch != 4 {
		t.Fatalf("merged counters: %+v", decoded)
	}
	// Merging junk wire data errors instead of panicking.
	bad := mk(1)
	st := bad.Stages[StageLock.String()]
	st.Wire = []byte{0xff, 0xff}
	bad.Stages[StageLock.String()] = st
	if err := decoded.Merge(bad); err == nil {
		t.Fatal("junk wire merged")
	}
}

func TestStageNames(t *testing.T) {
	names := StageNames()
	if len(names) != int(NumStages) {
		t.Fatalf("%d names", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("bad or duplicate stage name %q", n)
		}
		seen[n] = true
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage name")
	}
}
