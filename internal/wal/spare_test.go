package wal

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const spareSegBytes = 4096

// fillPast commits 200-byte records, each in its own round, until the
// log has written at least n record bytes.
func fillPast(t *testing.T, l *Log, acked *[]Record, n uint64) {
	t.Helper()
	for l.Stats().Bytes < n {
		i := len(*acked)
		commitAll(t, l, acked, put(0, fmt.Sprintf("k%03d", i), uint64(i+1), 1, strings.Repeat("v", 200)))
	}
}

// TestSpareConsumedByRotation: a round that leaves the active segment a
// quarter full starts the builder. The first segment grows with every
// round, so the round after the spare is ready seals it early; the
// spare becomes segment 2, already SegmentBytes long before its first
// record and written in place, and — prepared — it is sealed only once
// full, whatever spare waits. The spare's fsync is counted apart, so
// FileSyncs == SyncRounds + Snapshots still holds.
func TestSpareConsumedByRotation(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: spareSegBytes, SnapshotEvery: -1})
	var acked []Record
	fillPast(t, l, &acked, spareSegBytes/4)
	if !waitSpare(l) {
		t.Fatal("no spare built once the segment was a quarter full")
	}
	if st := l.Stats(); st.Spares != 1 || len(spareFiles(t, dir)) != 1 {
		t.Fatalf("after one build: %+v, spare files %v", st, spareFiles(t, dir))
	}
	commitAll(t, l, &acked, put(0, "sealing", 1, 1, "v"))
	if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{segName(1), segName(2)}) {
		t.Fatalf("after the rotation the directory holds %v", got)
	}
	if left := spareFiles(t, dir); len(left) != 0 {
		t.Fatalf("the rotation left %v behind", left)
	}
	if size := fileSize(t, dir, segName(2)); size != spareSegBytes {
		t.Fatalf("seg 2 is %d bytes before its first record, want the spare's %d", size, spareSegBytes)
	}
	sealed := l.Stats().Bytes
	fillPast(t, l, &acked, sealed+spareSegBytes/4)
	if !waitSpare(l) {
		t.Fatal("no second spare")
	}
	commitAll(t, l, &acked, put(0, "in-place", 1, 1, "v"))
	if got := fileNames(t, dir); len(got) != 2 {
		t.Fatalf("a prepared segment was sealed before it was full: %v", got)
	}
	if size := fileSize(t, dir, segName(2)); size != spareSegBytes {
		t.Fatalf("rounds into the spare grew it to %d bytes", size)
	}
	st := l.Stats()
	if st.Spares != 2 || st.FileSyncs != st.SyncRounds+st.Snapshots {
		t.Fatalf("%+v: want two spares and FileSyncs == SyncRounds + Snapshots", st)
	}
	l.Abandon()
	l2 := open(t, dir, Options{})
	defer l2.Abandon()
	if got := collect(t, l2); !reflect.DeepEqual(got, acked) {
		t.Fatalf("replay: %d records, want the %d acknowledged", len(got), len(acked))
	}
	if size := fileSize(t, dir, segName(2)); size != int64(st.Bytes-sealed) {
		t.Fatalf("reopen left seg 2 at %d bytes, want its %d record bytes: the zero tail must be truncated", size, st.Bytes-sealed)
	}
}

// TestFailedSpareLeavesLogHealthy: a builder that fails removes its
// file and nothing else happens — the log keeps acknowledging, the
// rotation creates its segment as it would without spares, and every
// acknowledged record replays.
func TestFailedSpareLeavesLogHealthy(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: spareSegBytes, SnapshotEvery: -1})
	boom := errors.New("injected spare failure")
	l.SetHook(func(point string) error {
		if point == "spare" {
			return boom
		}
		return nil
	})
	var acked []Record
	fillPast(t, l, &acked, spareSegBytes/4)
	if waitSpare(l) {
		t.Fatal("a failed build handed over a spare")
	}
	if st := l.Stats(); st.Spares != 0 || len(spareFiles(t, dir)) != 0 {
		t.Fatalf("after a failed build: %+v, spare files %v", st, spareFiles(t, dir))
	}
	fillPast(t, l, &acked, spareSegBytes)
	commitAll(t, l, &acked, put(0, "after", 1, 1, "v"))
	waitSpare(l)
	if !l.Synced() {
		t.Fatal("the log stopped acknowledging after a failed spare")
	}
	if got := fileNames(t, dir); !reflect.DeepEqual(got, []string{segName(1), segName(2)}) {
		t.Fatalf("after the rotation the directory holds %v", got)
	}
	if size := fileSize(t, dir, segName(2)); size != int64(len(AppendRecord(nil, acked[len(acked)-1]))) {
		t.Fatalf("seg 2 is %d bytes: without a spare the rotation must create a plain segment", size)
	}
	if left := spareFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed builds left %v behind", left)
	}
	l.Abandon()
	l2 := open(t, dir, Options{})
	defer l2.Abandon()
	if got := collect(t, l2); !reflect.DeepEqual(got, acked) {
		t.Fatalf("replay: %d records, want the %d acknowledged", len(got), len(acked))
	}
}

// TestCrashStyleReopenWhileBuilding stops a log the way hqbench's reboot
// check does — never closed, its builder blocked mid-fill — and opens a
// successor on the same directory. The successor deletes the stray
// spare and serves; the old builder, released, finishes on its own
// unlinked file. The final reopen replays exactly the acknowledged
// history and finds no spare.
func TestCrashStyleReopenWhileBuilding(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: spareSegBytes, SnapshotEvery: -1}
	l1 := open(t, dir, opts)
	entered, release := make(chan struct{}), make(chan struct{})
	l1.SetHook(func(point string) error {
		if point == "spare" {
			close(entered)
			<-release
		}
		return nil
	})
	var acked []Record
	fillPast(t, l1, &acked, spareSegBytes/4)
	<-entered // the builder wrote its zeros and waits before its fsync
	if n := len(spareFiles(t, dir)); n != 1 {
		t.Fatalf("%d spare files while the builder runs, want 1", n)
	}

	l2 := open(t, dir, opts)
	if left := spareFiles(t, dir); len(left) != 0 {
		t.Fatalf("Open left the predecessor's spare %v", left)
	}
	if got := collect(t, l2); !reflect.DeepEqual(got, acked) {
		t.Fatalf("successor replay: %d records, want %d", len(got), len(acked))
	}
	fillPast(t, l2, &acked, spareSegBytes+1024) // past a rotation, on its own spares
	close(release)
	l1.Abandon() // waits for the old builder
	l2.Abandon()

	l3 := open(t, dir, opts)
	defer l3.Abandon()
	if got := collect(t, l3); !reflect.DeepEqual(got, acked) {
		t.Fatalf("final replay: %d records, want the %d acknowledged", len(got), len(acked))
	}
	if left := spareFiles(t, dir); len(left) != 0 {
		t.Fatalf("a spare survived the reopen: %v", left)
	}
}
