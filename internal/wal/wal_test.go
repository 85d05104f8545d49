package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// put builds a KindPut record carrying map-shard index s. The log
// neither encodes nor reads the index, so replay returns it as zero.
func put(s int, key string, counter, writer uint64, val string) Record {
	return Record{Shard: s, Kind: KindPut, Key: key, Counter: counter, Writer: writer, Value: val}
}

// noShard returns recs as replay reports them: without the shard hint.
func noShard(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	for i := range out {
		out[i].Shard = 0
	}
	return out
}

func open(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// waitIdle blocks until no commit loop or checkpoint holds the files.
func waitIdle(l *Log) {
	l.mu.Lock()
	for l.busy {
		l.idle.Wait()
	}
	l.mu.Unlock()
}

// collect replays every record into a slice.
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(r Record) { recs = append(recs, r) }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

// merged replays l the way the replica store does: per key the highest
// counter wins, clock leases keep their maximum (under key "").
func merged(t *testing.T, l *Log) map[string]Record {
	t.Helper()
	state := map[string]Record{}
	for _, r := range collect(t, l) {
		if cur, ok := state[r.Key]; !ok || cur.Counter < r.Counter {
			state[r.Key] = r
		}
	}
	return state
}

// dumpOf returns a checkpoint source emitting recs.
func dumpOf(recs ...Record) func(func(Record)) {
	return func(emit func(Record)) {
		for _, r := range recs {
			emit(r)
		}
	}
}

// fileNames lists dir, sorted, without spare segments: whether a spare
// is on disk at a given moment depends on its builder (see spareFiles).
func fileNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), sparePrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// spareFiles lists the spare segments in dir.
func spareFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, sparePrefix+"*"+spareSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// waitSpare waits until no spare builder runs and reports whether a
// built spare is waiting for the next rotation.
func waitSpare(l *Log) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.building {
		l.idle.Wait()
	}
	return l.spare != ""
}

// commitAll commits each record in its own round and appends it to acked.
func commitAll(t testing.TB, l *Log, acked *[]Record, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Commit(r); err != nil {
			t.Fatal(err)
		}
		*acked = append(*acked, noShard([]Record{r})...)
	}
}

// fileSize returns the size of dir/name.
func fileSize(t *testing.T, dir, name string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestAppendSyncReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{Shards: 4})
	want := []Record{
		put(0, "a", 1, 7, "alpha"),
		put(1, "b", 2, 7, "beta"),
		put(3, "c", 3, 8, ""),
		{Shard: 2, Kind: KindClock, Counter: 4096},
		put(0, "a", 5, 7, "alpha2"),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Abandon()

	l2 := open(t, dir, Options{Shards: 4})
	defer l2.Abandon()
	// One log: replay is append order, whatever shards the records named.
	if got := collect(t, l2); !reflect.DeepEqual(got, noShard(want)) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, noShard(want))
	}
	if st := l2.Stats(); st.Replayed != uint64(len(want)) {
		t.Fatalf("Replayed = %d, want %d", st.Replayed, len(want))
	}
	if names := fileNames(t, dir); !reflect.DeepEqual(names, []string{segName(1)}) {
		t.Fatalf("log directory holds %v, want the one segment", names)
	}
}

// TestGroupCommitOneFsyncPerRound is the acceptance check for group
// commit on the single log: a batch of 8 records spanning 8 map shards
// costs exactly one round with one fsync, and FileSyncs == SyncRounds
// holds however the rounds fall.
func TestGroupCommitOneFsyncPerRound(t *testing.T) {
	l := open(t, t.TempDir(), Options{Shards: 8})
	defer l.Abandon()
	for i := 0; i < 8; i++ {
		if err := l.Append(put(i, fmt.Sprintf("k%d", i), uint64(i+1), 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Appends != 8 || st.SyncRounds != 1 || st.FileSyncs != 1 {
		t.Fatalf("after one 8-shard batch: %+v, want 8 appends in 1 round with 1 fsync", st)
	}
	// A Sync with nothing new appended is free: no extra round.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SyncRounds != 1 || st.FileSyncs != 1 {
		t.Fatalf("idle Sync ran a round: %+v", st)
	}
}

// TestConcurrentCommitsCoalesce drives Commit from many goroutines; all
// records must be durable afterwards, rounds must have coalesced (at
// most one round per committer, typically far fewer) and every round
// must have cost exactly one fsync.
func TestConcurrentCommitsCoalesce(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{Shards: 16})
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Commit(put(i%16, "k", uint64(i+1), uint64(i), "v")); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	if st.SyncRounds > n {
		t.Fatalf("SyncRounds = %d > %d commits: no coalescing at all", st.SyncRounds, n)
	}
	if st.FileSyncs != st.SyncRounds {
		t.Fatalf("FileSyncs = %d, SyncRounds = %d: a round must cost exactly one fsync", st.FileSyncs, st.SyncRounds)
	}
	l.Abandon()
	l2 := open(t, dir, Options{})
	defer l2.Abandon()
	if got := len(collect(t, l2)); got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
}

// TestAfterSyncReleasedByCoveringFsync: callbacks registered while a
// round is stuck in fsync do not run before a covering fsync returns,
// and all of them ride the one round that follows.
func TestAfterSyncReleasedByCoveringFsync(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	defer l.Abandon()
	entered, gate := make(chan struct{}, 16), make(chan struct{})
	l.SetHook(func(point string) error {
		if point == "sync" {
			entered <- struct{}{}
			<-gate
		}
		return nil
	})
	var mu sync.Mutex
	var released []int
	var all sync.WaitGroup
	all.Add(8)
	register := func(i int) {
		if err := l.Append(put(i, fmt.Sprintf("k%d", i), uint64(i+1), 1, "v")); err != nil {
			t.Fatal(err)
		}
		l.AfterSync(nil, func(err error) {
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			mu.Lock()
			released = append(released, i)
			mu.Unlock()
			all.Done()
		})
	}
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(released)
	}
	if !l.Synced() {
		t.Fatal("an empty log reports a commit round owed")
	}
	register(0)
	<-entered // round 1 is inside its fsync, covering record 0 only
	if l.Synced() {
		t.Fatal("Synced while record 0 is still inside its fsync")
	}
	for i := 1; i < 8; i++ {
		register(i) // returns at once: nobody parks behind the flush
	}
	if n := count(); n != 0 {
		t.Fatalf("%d callbacks ran before any fsync returned", n)
	}
	gate <- struct{}{} // round 1's fsync returns
	<-entered          // round 2 is inside its fsync, covering records 1..7
	if n := count(); n != 1 {
		t.Fatalf("%d callbacks ran after round 1, want exactly the one it covered", n)
	}
	gate <- struct{}{}
	all.Wait()
	waitIdle(l)
	if !l.Synced() {
		t.Fatal("not Synced after the round that covered every record")
	}
	if st := l.Stats(); st.SyncRounds != 2 || st.FileSyncs != 2 {
		t.Fatalf("8 registrations took %+v, want 2 rounds with 2 fsyncs", st)
	}
}

// TestNoSyncRoundsRunInline: under NoSync the covering round completes
// before AfterSync returns — the property that keeps the simulator
// single-goroutine and its runs repeatable.
func TestNoSyncRoundsRunInline(t *testing.T) {
	l := open(t, t.TempDir(), Options{NoSync: true})
	defer l.Abandon()
	for i := 0; i < 3; i++ {
		if err := l.Append(put(0, "k", uint64(i+1), 1, "v")); err != nil {
			t.Fatal(err)
		}
		ran := false
		l.AfterSync(nil, func(err error) { ran = err == nil })
		if !ran {
			t.Fatalf("round %d: callback had not run when AfterSync returned", i)
		}
	}
	if st := l.Stats(); st.SyncRounds != 3 || st.FileSyncs != 0 {
		t.Fatalf("NoSync stats %+v, want 3 rounds and no fsync", st)
	}
}

// TestSyncFailureIsSticky: a failed fsync fails the waiters it would
// have covered and every later operation — the replica must stop
// acknowledging, not retry into a log of unknown state.
func TestSyncFailureIsSticky(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	defer l.Abandon()
	boom := errors.New("injected fsync failure")
	l.SetHook(func(point string) error { return boom })
	if err := l.Commit(put(0, "k", 1, 1, "v")); !errors.Is(err, boom) {
		t.Fatalf("Commit = %v, want the injected failure", err)
	}
	l.SetHook(nil)
	if err := l.Append(put(0, "k", 2, 1, "v")); !errors.Is(err, boom) {
		t.Fatalf("Append after failure = %v, want the sticky failure", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync after failure = %v, want the sticky failure", err)
	}
	if l.Synced() {
		t.Fatal("a failed log reports its records durable")
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 64, SnapshotEvery: -1})
	for i := 0; i < 6; i++ {
		if err := l.Commit(put(i, "k", uint64(i+1), 1, "some-payload-value"), Record{Kind: KindClock, Counter: uint64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if names := fileNames(t, dir); len(names) < 3 {
		t.Fatalf("expected several rolled segments before the checkpoint, got %v", names)
	}
	// Checkpoint with the compacted state: one live entry.
	if err := l.Checkpoint(dumpOf(put(0, "k", 6, 1, "some-payload-value"))); err != nil {
		t.Fatal(err)
	}
	names := fileNames(t, dir)
	if len(names) != 2 || names[1] != snapName {
		t.Fatalf("log directory holds %v, want one fresh segment plus %s", names, snapName)
	}
	st := l.Stats()
	if st.Snapshots != 1 || st.FileSyncs != st.SyncRounds+st.Snapshots {
		t.Fatalf("%+v: want FileSyncs == SyncRounds + Snapshots", st)
	}
	// Appends continue in the fresh segment; replay sees the checkpoint —
	// headed by the clock lease the log carried over itself — then the tail.
	if err := l.Commit(put(0, "k2", 7, 1, "w")); err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	l2 := open(t, dir, Options{})
	defer l2.Abandon()
	want := []Record{
		{Kind: KindClock, Counter: 105},
		put(0, "k", 6, 1, "some-payload-value"),
		put(0, "k2", 7, 1, "w"),
	}
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

// TestAutoCheckpoint: once SnapshotEvery records are in, the round that
// crosses the mark writes a checkpoint from the registered source before
// it releases its waiters, and the lease replayed at open survives a
// checkpoint that happens before any new lease is logged.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SnapshotEvery: 4})
	if err := l.Commit(Record{Kind: KindClock, Counter: 9000}); err != nil {
		t.Fatal(err)
	}
	l.Abandon()

	l = open(t, dir, Options{SnapshotEvery: 4})
	collect(t, l)
	var mu sync.Mutex
	var state []Record
	l.AutoCheckpoint(func(emit func(Record)) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range state {
			emit(r)
		}
	})
	for i := 0; i < 4; i++ {
		r := put(i, fmt.Sprintf("k%d", i), uint64(i+1), 1, "v")
		mu.Lock()
		state = append(state, noShard([]Record{r})...)
		err := l.Append(r)
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// The round that crossed the mark wrote the checkpoint before it
	// released the last Sync: nothing is in flight now.
	if st := l.Stats(); st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d after SnapshotEvery appends, want 1", st.Snapshots)
	}
	l.Abandon()
	l2 := open(t, dir, Options{})
	defer l2.Abandon()
	want := append([]Record{{Kind: KindClock, Counter: 9000}}, state...)
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after auto checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

func TestCleanShutdownMarker(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{Shards: 2})
	state := []Record{put(0, "a", 3, 1, "x"), put(1, "b", 4, 2, "y")}
	for _, r := range state {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(dumpOf(state...)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, markerName)); err != nil {
		t.Fatalf("clean-shutdown marker missing: %v", err)
	}
	if err := l.Append(state[0]); err != ErrAbandoned {
		t.Fatalf("Append after Close = %v, want ErrAbandoned", err)
	}

	l2 := open(t, dir, Options{Shards: 2})
	if !l2.CleanStart() {
		t.Fatal("CleanStart = false after clean Close")
	}
	want := noShard(state)
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after clean shutdown:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, markerName)); !os.IsNotExist(err) {
		t.Fatal("marker not consumed by Open")
	}
	l2.Abandon()

	// Third open, after an unclean stop: same state, no marker.
	l3 := open(t, dir, Options{Shards: 2})
	defer l3.Abandon()
	if l3.CleanStart() {
		t.Fatal("CleanStart = true without a marker")
	}
	if got := collect(t, l3); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after unclean stop:\n got %+v\nwant %+v", got, want)
	}
}

// TestAbandonLosesOnlyUnsynced: records synced before the crash
// survive; records merely appended do not. This is the simulated-crash
// contract the nemesis harness relies on.
func TestAbandonLosesOnlyUnsynced(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		dir := t.TempDir()
		l := open(t, dir, Options{NoSync: noSync})
		if err := l.Commit(put(0, "durable", 1, 1, "yes")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(put(0, "lost", 2, 1, "no")); err != nil {
			t.Fatal(err)
		}
		l.Abandon()
		if err := l.Append(put(0, "dead", 3, 1, "")); err != ErrAbandoned {
			t.Fatalf("Append after Abandon = %v, want ErrAbandoned", err)
		}
		if err := l.Sync(); err != ErrAbandoned {
			t.Fatalf("Sync after Abandon = %v, want ErrAbandoned", err)
		}
		l2 := open(t, dir, Options{NoSync: noSync})
		want := []Record{put(0, "durable", 1, 1, "yes")}
		if got := collect(t, l2); !reflect.DeepEqual(got, want) {
			t.Fatalf("noSync=%v: replay after crash:\n got %+v\nwant %+v", noSync, got, want)
		}
		l2.Abandon()
	}
}

func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 64, SnapshotEvery: -1})
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Commit(put(0, "key", uint64(i+1), 1, "some-payload-value")); err != nil {
			t.Fatal(err)
		}
	}
	if names := fileNames(t, dir); len(names) < 3 {
		t.Fatalf("expected multiple rolled segments, got %v", names)
	}
	l.Abandon()
	l2 := open(t, dir, Options{})
	defer l2.Abandon()
	got := collect(t, l2)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	if got[n-1].Counter != n {
		t.Fatalf("last record counter = %d, want %d", got[n-1].Counter, n)
	}
}

// TestLegacyLayoutRejected: a directory still holding the per-shard
// sNN/ sub-logs is refused with a typed error that names it, and is
// left untouched.
func TestLegacyLayoutRejected(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "s03")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(old, segName(1))
	if err := os.WriteFile(seg, AppendRecord(nil, put(3, "k", 1, 1, "v")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{Shards: 16})
	if !errors.Is(err, ErrLegacyLayout) || !bytes.Contains([]byte(err.Error()), []byte(dir)) {
		t.Fatalf("Open on a legacy directory = %v, want ErrLegacyLayout naming %s", err, dir)
	}
	if names := fileNames(t, dir); !reflect.DeepEqual(names, []string{"s03"}) {
		t.Fatalf("rejected directory now holds %v", names)
	}
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("legacy segment disturbed: %v", err)
	}
}

func TestDecodeRecordRejectsCorruption(t *testing.T) {
	valid := AppendRecord(nil, put(0, "key", 9, 2, "value"))
	if rec, n, err := DecodeRecord(valid); err != nil || n != len(valid) || rec.Key != "key" {
		t.Fatalf("valid record: rec=%+v n=%d err=%v", rec, n, err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"half prefix":    {0xff},
		"huge length":    append(bytes.Repeat([]byte{0xff}, 9), 0x01),
		"crc flipped":    flipByte(valid, 2),
		"body flipped":   flipByte(valid, len(valid)-1),
		"unknown kind":   AppendRecord(nil, Record{Kind: 99, Counter: 1}),
		"trailing junk":  appendFrame(nil, append(appendBody(nil, put(0, "k", 1, 1, "v")), 0xAA)),
		"short frame":    {0x04, 0, 0, 0, 0}, // length below the 5-byte floor
		"length overrun": valid[:len(valid)-2],
	}
	for name, data := range cases {
		if _, _, err := DecodeRecord(data); err != ErrCorrupt {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}
