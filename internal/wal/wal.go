package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/internal/optrace"
)

// On-disk layout of one log directory:
//
//	seg-NNNNNNNN.wal  append-only record segments, ascending; the last is active
//	snap.wal          the newest whole-store checkpoint (absent until the first)
//	snap.tmp          a checkpoint being written (deleted at Open)
//	CLEAN             clean-shutdown marker (consumed at Open)
const (
	markerName = "CLEAN"
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapName   = "snap.wal"
	snapTmp    = "snap.tmp"
)

// ErrAbandoned reports an operation on a log that was closed or whose
// files were dropped by Abandon — the simulated-crash state.
var ErrAbandoned = errors.New("wal: log abandoned")

// ErrLegacyLayout reports a directory written by the retired layout of
// one sNN/ sub-log per map shard. There is no compatibility reader: the
// replica must start from an empty directory and be healed by its peers.
var ErrLegacyLayout = errors.New("wal: directory holds the retired per-shard sNN/ layout")

// Options configures a Log.
type Options struct {
	// Shards is the owner's map-shard count. The log is one file sequence
	// whatever its value; it only scales the default SnapshotEvery, so
	// that a checkpoint — which dumps every shard — is amortized over
	// proportionally more appends. Minimum 1.
	Shards int
	// SegmentBytes seals the active segment once it reaches this size
	// (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery checkpoints the store after this many appended
	// records (default 4096 per shard; negative disables). Checkpoints
	// need a dump source: see AutoCheckpoint.
	SnapshotEvery int
	// NoSync skips fsync: records are written to the file but not forced
	// to disk, and commit rounds run inline on the goroutine that asks
	// for them instead of on the log's committer goroutine. The
	// deterministic simulation runs NoSync — its crash model kills a
	// process, not the machine, so what write() made visible is exactly
	// what survives — while real deployments keep fsync on.
	NoSync bool
}

// counters are the Log's internal atomics; Stats() snapshots them
// (Appends is appendSeq).
type counters struct {
	syncRounds atomic.Uint64
	fileSyncs  atomic.Uint64
	snapshots  atomic.Uint64
	bytes      atomic.Uint64
	replayed   atomic.Uint64
}

// Stats is a point-in-time snapshot of a Log's operation counters.
type Stats struct {
	Appends    uint64 // records appended
	SyncRounds uint64 // commit rounds executed
	FileSyncs  uint64 // fsync calls on segment, checkpoint and marker files
	Snapshots  uint64 // checkpoints written
	Bytes      uint64 // record bytes written to segments
	Replayed   uint64 // records emitted by Replay
}

// waiter is one AfterSync registration: fn runs once a commit round has
// covered record number seq.
type waiter struct {
	seq uint64
	fn  func(error)
	rec *optrace.Rec
	at  int64 // optrace.Clock() at registration; sampled waiters only
}

// Log is one replica's durable write-ahead log with group commit.
//
// Concurrency contract: Append may be called from many goroutines (the
// transport's fast-path delivery) and only encodes into a memory
// buffer. AfterSync registers a callback for "everything appended so
// far is durable"; a commit round takes the whole buffer, issues one
// write and one fsync, and releases every waiter it covered. Rounds run
// back to back on a committer goroutine that exists only while waiters
// do, so no caller sleeps in fsync unless it asks to (Sync), and
// however many records, shards and callers a round gathered it costs
// exactly one fsync.
type Log struct {
	dir   string
	opts  Options
	clean bool // clean-shutdown marker was present at Open

	mu        sync.Mutex
	idle      *sync.Cond // signalled when busy drops
	buf       []byte     // records appended since the last round took the buffer
	scratch   []byte     // body-encoding scratch
	appendSeq uint64     // records appended
	syncedSeq uint64     // records covered by a completed round
	sinceCkpt int        // records appended since the last checkpoint's rotation
	clock     uint64     // highest KindClock bound replayed or appended
	waiters   []waiter   // ascending seq
	busy      bool       // some goroutine owns the files: a commit loop or a checkpoint
	err       error      // sticky: the first I/O failure, or ErrAbandoned, fails everything after
	dump      func(emit func(Record))

	// File state: touched only by the goroutine that set busy.
	seg     *os.File // active segment
	segs    []uint64 // segment numbers on disk, ascending; the last is active
	segSize int64
	spare   []byte   // the buffer the previous round wrote, recycled
	ready   []waiter // the current round's released waiters
	// hook, when set (tests), runs at named points — "sync" before every
	// segment fsync, "rotated", "written", "renamed" and "deleted" inside
	// a checkpoint — and a non-nil return fails the operation there, as
	// if the process had died at that point.
	hook func(point string) error

	stats counters
}

func segName(n uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// segNumber parses a segment file name; ok is false for anything else.
func segNumber(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// legacyShardDir reports whether name is an sNN/ directory of the
// retired per-shard layout.
func legacyShardDir(name string) bool {
	return len(name) == 3 && name[0] == 's' && name[1] >= '0' && name[1] <= '9' && name[2] >= '0' && name[2] <= '9'
}

// Open opens (or initializes) the log rooted at dir: a half-written
// checkpoint is discarded, the newest segment's torn tail is truncated
// to the last valid record and the segment positioned for appends. Call
// Replay before the first Append to rebuild state.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 4096 * opts.Shards
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.idle = sync.NewCond(&l.mu)
	for _, e := range ents {
		if e.IsDir() && legacyShardDir(e.Name()) {
			return nil, fmt.Errorf("%w: %s", ErrLegacyLayout, dir)
		}
		if n, ok := segNumber(e.Name()); ok {
			l.segs = append(l.segs, n)
		}
	}
	sort.Slice(l.segs, func(a, b int) bool { return l.segs[a] < l.segs[b] })
	if err := os.Remove(filepath.Join(dir, snapTmp)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if len(l.segs) == 0 {
		err = l.openSegment(1)
	} else {
		err = l.recoverTail()
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	// Consume the marker only once the log opened: a crash between here
	// and the caller's Replay re-runs the same recovery.
	if err := os.Remove(filepath.Join(dir, markerName)); err == nil {
		l.clean = true
	} else if !os.IsNotExist(err) {
		l.seg.Close()
		return nil, err
	}
	return l, nil
}

// recoverTail truncates the newest segment to its last valid record and
// reopens it for appends. Older segments were sealed after a completed
// write, so only the newest can end in a torn record.
func (l *Log) recoverTail() error {
	path := filepath.Join(l.dir, segName(l.segs[len(l.segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	valid := scanBuf(data, nil)
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.seg, l.segSize = f, int64(valid)
	return nil
}

// openSegment creates and activates segment n.
func (l *Log) openSegment(n uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(n)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.seg, l.segSize = f, 0
	l.segs = append(l.segs, n)
	return l.syncDir()
}

// CleanStart reports whether the clean-shutdown marker was present at
// Open — the previous owner closed the log with a final checkpoint.
func (l *Log) CleanStart() bool { return l.clean }

// Replay streams every recovered record to fn: the checkpoint first,
// then the segments in order. Segments overlap the checkpoint (it is
// fuzzy), so fn must merge idempotently — the replica store's
// higher-version-wins merge does. Each file's scan stops at its first
// torn or corrupt record. Replay before appending.
func (l *Log) Replay(fn func(Record)) error {
	var clock uint64
	emit := func(rec Record) {
		if rec.Kind == KindClock && rec.Counter > clock {
			clock = rec.Counter
		}
		l.stats.replayed.Add(1)
		fn(rec)
	}
	names := []string{snapName}
	for _, n := range l.segs {
		names = append(names, segName(n))
	}
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(l.dir, name))
		if err != nil {
			if i == 0 && os.IsNotExist(err) {
				continue // no checkpoint yet
			}
			return fmt.Errorf("wal: replay: %w", err)
		}
		scanBuf(data, emit)
	}
	l.mu.Lock()
	if clock > l.clock {
		l.clock = clock
	}
	l.mu.Unlock()
	return nil
}

// AutoCheckpoint gives the log its checkpoint source: once
// Options.SnapshotEvery records have been appended since the last
// checkpoint, the round that crosses the mark writes one from dump. See
// Checkpoint for what dump must guarantee.
func (l *Log) AutoCheckpoint(dump func(emit func(Record))) {
	l.mu.Lock()
	l.dump = dump
	l.mu.Unlock()
}

// Append stages one record for the next commit round. It is durable
// once a Sync or AfterSync that started at or after this call reports
// success.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.scratch = appendBody(l.scratch[:0], rec)
	l.buf = appendFrame(l.buf, l.scratch)
	l.appendSeq++
	l.sinceCkpt++
	if rec.Kind == KindClock && rec.Counter > l.clock {
		l.clock = rec.Counter
	}
	return nil
}

// poison records the log's first failure. Caller holds mu.
func (l *Log) poison(err error) {
	if l.err == nil {
		l.err = err
	}
}

// AfterSync runs fn(nil) once every record appended before the call is
// written and (unless NoSync) fsynced, or fn(err) when the log cannot
// make them durable. fn runs exactly once: on the calling goroutine when
// nothing is pending, otherwise on whichever goroutine runs the covering
// round — the committer, or under NoSync the caller that found the log
// idle. It must not block for long: the next round waits for it.
//
// rec, when non-nil, is the caller's trace record, which the log owns
// until fn runs: the wait for the covering round to start its flush
// lands in wal_wait and that round's write+fsync in fsync.
func (l *Log) AfterSync(rec *optrace.Rec, fn func(error)) {
	w := waiter{fn: fn, rec: rec}
	if rec != nil {
		w.at = optrace.Clock()
	}
	l.mu.Lock()
	if err := l.err; err != nil || l.syncedSeq >= l.appendSeq {
		l.mu.Unlock()
		fn(err)
		return
	}
	w.seq = l.appendSeq
	l.waiters = append(l.waiters, w)
	start := !l.busy
	l.busy = true
	l.mu.Unlock()
	switch {
	case !start: // the goroutine that holds the files will reach us
	case l.opts.NoSync:
		l.commitLoop()
	default:
		go l.commitLoop()
	}
}

// Synced reports whether every record appended before the call is
// already durable: no commit round is owed. A failed log is never synced.
func (l *Log) Synced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err == nil && l.syncedSeq >= l.appendSeq
}

// Sync is the blocking barrier: it returns nil once every record
// appended before the call is durable.
func (l *Log) Sync() error {
	done := make(chan error, 1)
	l.AfterSync(nil, func(err error) { done <- err })
	return <-done
}

// Commit appends recs and blocks until they are durable.
func (l *Log) Commit(recs ...Record) error {
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			return err
		}
	}
	return l.Sync()
}

// commitLoop runs commit rounds (and the checkpoints they make due)
// until no waiter is left, then gives the files up. Caller set busy.
func (l *Log) commitLoop() {
	for {
		l.mu.Lock()
		if len(l.waiters) == 0 {
			l.busy = false
			l.idle.Broadcast()
			l.mu.Unlock()
			return
		}
		dump := l.dump
		if l.opts.SnapshotEvery <= 0 || l.sinceCkpt < l.opts.SnapshotEvery {
			dump = nil
		}
		l.mu.Unlock()
		// Errors are sticky inside the log: the next round fails and the
		// owner stops acknowledging.
		_ = l.round(dump)
	}
}

// round is one group commit: take everything appended so far, write and
// fsync it in one call each, release the waiters it covered. With a
// non-nil dump the round is also a checkpoint's rotation point, and the
// checkpoint is written before the waiters are released — so the log
// touches its files only while some caller is still waiting on it, and
// a process that stops once its callers are served leaves the directory
// quiescent. Caller holds busy.
func (l *Log) round(dump func(emit func(Record))) error {
	l.mu.Lock()
	data, target := l.buf, l.appendSeq
	l.buf = l.spare[:0]
	l.mu.Unlock()

	began := optrace.Clock()
	err := l.flush(data)
	ended := optrace.Clock()
	l.spare = data[:0]

	l.mu.Lock()
	if err != nil {
		l.poison(err)
		target = l.appendSeq // nothing pending can become durable any more
	} else {
		l.syncedSeq = target
	}
	k := sort.Search(len(l.waiters), func(i int) bool { return l.waiters[i].seq > target })
	l.ready = append(l.ready[:0], l.waiters[:k]...)
	rest := copy(l.waiters, l.waiters[k:])
	clear(l.waiters[rest:])
	l.waiters = l.waiters[:rest]
	l.mu.Unlock()

	var ckErr error
	if dump != nil && err == nil {
		ckErr = l.snapshot(dump)
	}
	for i, w := range l.ready {
		if w.rec != nil {
			// A waiter that registered mid-flush waited for none of it.
			from := max(began, w.at)
			w.rec.Observe(optrace.StageWALWait, time.Duration(from-w.at))
			w.rec.Observe(optrace.StageFsync, time.Duration(ended-from))
		}
		w.fn(err) // the records are durable whatever became of the checkpoint
		l.ready[i] = waiter{}
	}
	if err != nil {
		return err
	}
	return ckErr
}

// flush writes one round's records to the active segment and, unless
// the log runs NoSync, fsyncs it. A full segment is sealed and a fresh
// one opened afterwards.
func (l *Log) flush(data []byte) error {
	if len(data) == 0 {
		return nil // a checkpoint's rotation right after a round
	}
	l.stats.syncRounds.Add(1)
	if _, err := l.seg.Write(data); err != nil {
		return err
	}
	l.stats.bytes.Add(uint64(len(data)))
	l.segSize += int64(len(data))
	if !l.opts.NoSync {
		if err := l.at("sync"); err != nil {
			return err
		}
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.stats.fileSyncs.Add(1)
	}
	if l.segSize >= l.opts.SegmentBytes {
		return l.rotate()
	}
	return nil
}

// rotate seals the active segment and opens the next one.
func (l *Log) rotate() error {
	if err := l.seg.Close(); err != nil {
		return err
	}
	return l.openSegment(l.segs[len(l.segs)-1] + 1)
}

// SetHook installs the fault-injection seam (see Log.hook). Tests only;
// call it before the log is shared between goroutines.
func (l *Log) SetHook(fn func(point string) error) { l.hook = fn }

func (l *Log) at(point string) error {
	if l.hook == nil {
		return nil
	}
	return l.hook(point)
}

// Checkpoint replaces the log's history with a fuzzy whole-store
// checkpoint: commit what is buffered, rotate to a fresh segment, let
// dump emit the store's current state, write it to snap.tmp, fsync,
// rename over snap.wal, then delete the segments older than the
// rotation. A crash between any two steps leaves a directory that
// replays to a superset of what it held before the checkpoint began.
//
// dump must emit, for every record appended before Checkpoint was
// called, that record or a newer version of its key. The replica store
// guarantees it by applying and appending under one map-shard lock and
// dumping each shard under the same lock: a record in a pre-rotation
// segment was appended, hence applied, before the dump reached its
// shard. Records appended during the dump land in the fresh segment and
// may also appear in the checkpoint; replay merges the overlap. The
// highest clock lease is carried into every checkpoint by the log
// itself.
func (l *Log) Checkpoint(dump func(emit func(Record))) error {
	l.mu.Lock()
	for l.busy {
		l.idle.Wait()
	}
	l.busy = true
	l.mu.Unlock()
	err := l.round(dump)
	l.commitLoop() // serve whoever queued meanwhile, then release the files
	return err
}

// snapshot writes the checkpoint whose rotation point is the buffer swap
// of the round that calls it: every record appended before that swap is
// in the segments being retired. Caller holds busy.
func (l *Log) snapshot(dump func(emit func(Record))) (err error) {
	defer func() {
		if err != nil {
			l.mu.Lock()
			l.poison(err)
			l.mu.Unlock()
		}
	}()
	l.mu.Lock()
	l.sinceCkpt = 0
	clock := l.clock
	l.mu.Unlock()
	retired := len(l.segs)
	if err := l.rotate(); err != nil {
		return err
	}
	if err := l.at("rotated"); err != nil {
		return err
	}
	err = l.writeFile(snapTmp, func(w *bufio.Writer) {
		var body, frame []byte
		emit := func(rec Record) {
			body = appendBody(body[:0], rec)
			frame = appendFrame(frame[:0], body)
			w.Write(frame) // a failed write is sticky and reported by Flush
		}
		if clock > 0 {
			emit(Record{Kind: KindClock, Counter: clock})
		}
		dump(emit)
	})
	if err != nil {
		return err
	}
	if err := l.at("written"); err != nil {
		return err
	}
	if err := os.Rename(filepath.Join(l.dir, snapTmp), filepath.Join(l.dir, snapName)); err != nil {
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	if err := l.at("renamed"); err != nil {
		return err
	}
	for ; retired > 0; retired-- {
		if err := os.Remove(filepath.Join(l.dir, segName(l.segs[0]))); err != nil {
			return err
		}
		l.segs = l.segs[1:]
		if err := l.at("deleted"); err != nil {
			return err
		}
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.stats.snapshots.Add(1)
	return nil
}

// writeFile durably writes one file (checkpoint, marker) from what fill
// streams into it.
func (l *Log) writeFile(name string, fill func(w *bufio.Writer)) error {
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		l.stats.fileSyncs.Add(1)
	}
	return f.Close()
}

// syncDir fsyncs the log directory so file creates, deletes and the
// checkpoint rename are themselves durable.
func (l *Log) syncDir() error {
	if l.opts.NoSync {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// Close performs a clean shutdown: make everything durable, then, if
// dump is non-nil, write a final checkpoint from it and the
// clean-shutdown marker. Close with a nil dump just syncs and releases
// the files (no marker). The log is unusable afterwards.
func (l *Log) Close(dump func(emit func(Record))) error {
	var err error
	if dump == nil {
		err = l.Sync()
	} else if err = l.Checkpoint(dump); err == nil {
		if err = l.writeFile(markerName, func(w *bufio.Writer) { w.WriteString("clean\n") }); err == nil {
			err = l.syncDir()
		}
	}
	l.Abandon()
	return err
}

// Abandon drops the log without flushing: buffered records are lost,
// the segment is closed as it is, and every later operation fails with
// ErrAbandoned. It is the simulated-crash path — what a SIGKILL does to
// user-space buffers — and the harness reopens the directory with Open
// to model the restart. Abandon waits for the commit loop or checkpoint
// in flight (the crash lands just after it), so nothing touches the
// files once it returns.
func (l *Log) Abandon() {
	l.mu.Lock()
	l.poison(ErrAbandoned)
	for l.busy {
		l.idle.Wait()
	}
	if l.seg != nil {
		l.seg.Close()
		l.seg = nil
	}
	l.mu.Unlock()
}

// Stats snapshots the log's operation counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	appends := l.appendSeq
	l.mu.Unlock()
	return Stats{
		Appends:    appends,
		SyncRounds: l.stats.syncRounds.Load(),
		FileSyncs:  l.stats.fileSyncs.Load(),
		Snapshots:  l.stats.snapshots.Load(),
		Bytes:      l.stats.bytes.Load(),
		Replayed:   l.stats.replayed.Load(),
	}
}
