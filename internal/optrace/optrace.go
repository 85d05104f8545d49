// Package optrace is the server-side op tracer: a flat, allocation-free
// per-operation record of where the microseconds went — queue wait,
// frame decode, shard lock, storage commit, lease barrier, encode,
// flush — folded into per-stage mergeable histograms at op completion.
//
// The design is built around two costs:
//
//   - Sampled out (the common case): one atomic add per candidate op.
//     Every stamp method is a nil-receiver no-op, so un-sampled hot
//     paths pay a single predictable branch per stamp site.
//   - Sampled in: stamps are monotonic clock reads into a flat struct
//     (no allocation — records are pooled), and one mutex-guarded fold
//     into the stage histograms when the op completes.
//
// A Rec is owned by exactly one goroutine at a time: the transport
// reader that sampled it, then (via the event queue, a writer queue or
// the WAL's waiter list, all of which establish happens-before)
// whichever goroutine finishes it. A hand-off is final: the giver drops
// its pointer and never looks at the record again, because the taker
// may fold and recycle it at once. Stages may nest or overlap; Done
// folds whatever was recorded.
//
// The package sits below every layer that stamps (transport, rkv, wal,
// gateway) and therefore also hosts the two tiny interfaces they share:
// Source (a handler exposing its Tracer to the transport) and Carrier
// (an Env exposing the in-flight delivery's Rec to the handler).
package optrace

import (
	"sync"
	"sync/atomic"
	"time"

	"hquorum/internal/histo"
)

// Stage names one timed segment of an operation's server-side life.
type Stage uint8

const (
	// StageQueue is event-loop (or gateway ready-ring) queue wait:
	// enqueue on the reader to dequeue on the dispatching loop.
	StageQueue Stage = iota
	// StageDecode is frame parse time on the transport reader, measured
	// from the moment the frame's bytes were available.
	StageDecode
	// StageLock is shard-map access under the shard mutex (reads and
	// write applies, including the WAL append that rides the lock).
	StageLock
	// StageStorage is the replica's whole durability barrier
	// (ackDurable): everything between "applied" and "durable".
	StageStorage
	// StageWALWait is the group-commit coalescing wait inside the
	// storage barrier: until the covering round starts its flush.
	StageWALWait
	// StageFsync is the covering round's write+fsync pass.
	StageFsync
	// StageLease is the coordinator's lease-invalidation barrier: from
	// entering phaseInval to the write phase being allowed to ship.
	StageLease
	// StageQuorum is a coordinator op's full quorum wait: launch to
	// completion across all its phases and retries (client-visible
	// server latency; includes network round-trips).
	StageQuorum
	// StageEncode is reply/request encode time on a writer goroutine.
	StageEncode
	// StageSend is writer-queue wait plus flush: from Env.Send handing
	// the first reply to the peer writer until the flush that carried
	// it returns.
	StageSend
	// StageGwQueue is the gateway's per-connection client-queue wait
	// (push to pop).
	StageGwQueue
	// StageGwDispatch is gateway session dispatch: pop to the session
	// accepting the op.
	StageGwDispatch
	// StageTotal is a replica delivery's whole life: frame available to
	// processing finished (reply flushed when one was sent).
	StageTotal

	// NumStages is the number of stages; it must stay ≤ 32 (stamp state
	// is tracked in uint32 bitmasks).
	NumStages
)

var stageNames = [NumStages]string{
	"queue", "decode", "lock", "storage", "wal_wait", "fsync",
	"lease", "quorum", "encode", "send", "gw_queue", "gw_dispatch",
	"total",
}

// String returns the stage's snake_case name (the JSON/metrics key).
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns every stage name in pipeline order — the canonical
// key set metrics consumers iterate.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// Op kind tags. Coarse on purpose: the histograms answer "where did the
// time go", the kind counters answer "for what mix".
type Kind uint8

const (
	KindOther Kind = iota // untagged deliveries: acks, control traffic
	KindRead
	KindWrite
	numKinds
)

// base anchors the package clock; stamps are monotonic nanoseconds
// since process start, compared only against each other.
var base = time.Now()

// Clock returns the tracer's monotonic clock reading, for callers that
// need to timestamp outside a Rec (e.g. the transport's arrival reader).
func Clock() int64 { return int64(time.Since(base)) }

// Rec is one sampled operation's flat stage-timing record. All methods
// are safe on a nil receiver (the sampled-out case) and none allocate.
type Rec struct {
	kind  Kind
	batch uint32
	epoch uint64

	open  uint32 // stages begun and not yet ended
	used  uint32 // stages with recorded time
	t0    [NumStages]int64
	dur   [NumStages]int64
	owner *Tracer
}

// Begin marks the start of a stage. Re-Begin of an open stage restarts
// its clock; Begin of a finished stage accumulates another interval.
func (r *Rec) Begin(s Stage) {
	if r == nil {
		return
	}
	r.open |= 1 << s
	r.t0[s] = Clock()
}

// BeginAt is Begin with a caller-provided Clock() stamp (e.g. a frame's
// arrival time recorded by the socket reader).
func (r *Rec) BeginAt(s Stage, at int64) {
	if r == nil {
		return
	}
	r.open |= 1 << s
	r.t0[s] = at
}

// End closes a stage, accumulating the elapsed time. A stage that was
// never begun is ignored, so barrier code may End unconditionally.
func (r *Rec) End(s Stage) {
	if r == nil {
		return
	}
	bit := uint32(1) << s
	if r.open&bit == 0 {
		return
	}
	r.open &^= bit
	if d := Clock() - r.t0[s]; d > 0 {
		r.dur[s] += d
	}
	r.used |= bit
}

// Observe adds a externally measured duration to a stage.
func (r *Rec) Observe(s Stage, d time.Duration) {
	if r == nil {
		return
	}
	if d > 0 {
		r.dur[s] += int64(d)
	}
	r.used |= 1 << s
}

// Tag records the op's kind, batch size and epoch.
func (r *Rec) Tag(kind Kind, batch int, epoch uint64) {
	if r == nil {
		return
	}
	r.kind = kind
	if batch > 0 {
		r.batch = uint32(batch)
	}
	r.epoch = epoch
}

// Done closes any still-open stages, folds the record into its tracer's
// histograms and recycles it. The record must not be used afterwards.
func (r *Rec) Done() {
	if r == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		r.End(s)
	}
	t := r.owner
	t.mu.Lock()
	t.sampled++
	t.kinds[r.kind]++
	t.batchSum += uint64(r.batch)
	if r.epoch > t.epoch {
		t.epoch = r.epoch
	}
	for s := Stage(0); s < NumStages; s++ {
		if r.used&(1<<s) == 0 {
			continue
		}
		if t.stages[s] == nil {
			t.stages[s] = histo.New()
		}
		t.stages[s].Record(r.dur[s])
	}
	t.mu.Unlock()
	*r = Rec{}
	t.pool.Put(r)
}

// Tracer samples operations and accumulates their stage durations.
// Sample/Done are safe for concurrent use from transport readers, event
// loops and writer goroutines; a Rec itself is single-owner.
type Tracer struct {
	every atomic.Int64
	ctr   atomic.Uint64
	pool  sync.Pool

	mu       sync.Mutex
	sampled  uint64
	kinds    [numKinds]uint64
	batchSum uint64
	epoch    uint64
	// stages holds one histogram per stage that has recorded a sample; a
	// stage's (~30 KB) histogram is allocated by the first Done that
	// folds into it, so a tracer that never samples costs none.
	stages [NumStages]*histo.Histogram
}

// New returns a tracer sampling one in every ops (≤ 0 disables — every
// stamp site then costs one atomic load).
func New(every int) *Tracer {
	t := &Tracer{}
	t.every.Store(int64(every))
	t.pool.New = func() any { return new(Rec) }
	return t
}

// SetSample changes the sampling rate live (the -trace-sample knob).
func (t *Tracer) SetSample(every int) {
	if t != nil {
		t.every.Store(int64(every))
	}
}

// SampleEvery returns the current 1-in-N rate (0 = disabled).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	if e := t.every.Load(); e > 0 {
		return int(e)
	}
	return 0
}

// Sample admits one in every N calls, returning a fresh Rec for it and
// nil otherwise. A nil tracer always returns nil, so layers thread
// tracers without nil checks.
func (t *Tracer) Sample() *Rec {
	if t == nil {
		return nil
	}
	e := t.every.Load()
	if e <= 0 {
		return nil
	}
	if e > 1 && t.ctr.Add(1)%uint64(e) != 0 {
		return nil
	}
	r := t.pool.Get().(*Rec)
	r.owner = t
	return r
}

// Source is implemented by handlers that own a Tracer (rkv.Node); the
// transport discovers it to stamp decode/queue/send stages into the
// same histogram set the handler folds its own stages into.
type Source interface {
	Tracer() *Tracer
}

// Carrier is implemented by transport Envs that carry the in-flight
// delivery's sampled record; handlers retrieve it to stamp their
// stages. From is the nil-safe accessor.
type Carrier interface {
	TraceRec() *Rec
}

// From extracts the delivery's trace record from an Env-like value (nil
// when the transport doesn't trace, or the delivery wasn't sampled).
func From(env any) *Rec {
	if c, ok := env.(Carrier); ok {
		return c.TraceRec()
	}
	return nil
}

// StageStat is one stage's exported summary. Durations are microseconds
// (float: sub-microsecond stages are real at these scales). Wire is the
// stage histogram's compact mergeable form (histo.Decode); JSON encodes
// it base64.
type StageStat struct {
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
	Wire   []byte  `json:"wire,omitempty"`
}

// Snapshot is a tracer's exported state: sampling config, tag counters
// and every stage's summary (all stages are always present, so metrics
// consumers see a stable shape).
type Snapshot struct {
	SampleEvery int                  `json:"sample_every"`
	Sampled     uint64               `json:"sampled"`
	Reads       uint64               `json:"reads"`
	Writes      uint64               `json:"writes"`
	Other       uint64               `json:"other"`
	AvgBatch    float64              `json:"avg_batch"`
	Epoch       uint64               `json:"epoch"`
	Stages      map[string]StageStat `json:"stages"`
}

// noSamples stands in for a stage that has recorded nothing; it is only
// ever read.
var noSamples = histo.New()

// stat summarizes one stage's histogram; nil (no samples yet) reads as
// empty.
func stat(h *histo.Histogram) StageStat {
	if h == nil {
		h = noSamples
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return StageStat{
		Count:  h.Count(),
		P50Us:  us(h.Quantile(0.5)),
		P99Us:  us(h.Quantile(0.99)),
		MaxUs:  us(h.Max()),
		MeanUs: h.Mean() / 1e3,
		Wire:   h.AppendBinary(nil),
	}
}

// Snapshot returns a consistent copy of the tracer's state. Safe
// concurrently with sampling; nil-safe (empty snapshot). A stage with no
// samples is reported empty, so every stage is present.
func (t *Tracer) Snapshot() Snapshot {
	snap := Snapshot{Stages: make(map[string]StageStat, NumStages)}
	if t == nil {
		for s := Stage(0); s < NumStages; s++ {
			snap.Stages[s.String()] = stat(nil)
		}
		return snap
	}
	snap.SampleEvery = t.SampleEvery()
	t.mu.Lock()
	defer t.mu.Unlock()
	snap.Sampled = t.sampled
	snap.Reads = t.kinds[KindRead]
	snap.Writes = t.kinds[KindWrite]
	snap.Other = t.kinds[KindOther]
	if n := t.kinds[KindRead] + t.kinds[KindWrite]; n > 0 {
		snap.AvgBatch = float64(t.batchSum) / float64(n)
	}
	snap.Epoch = t.epoch
	for s := Stage(0); s < NumStages; s++ {
		snap.Stages[s.String()] = stat(t.stages[s])
	}
	return snap
}

// Merge folds o into s via the compact wire forms — the cross-node
// aggregation path (metrics endpoints, the benchmark's per-node tracers).
// Stages present in either side survive; malformed wire data is an
// error and leaves s partially merged.
func (s *Snapshot) Merge(o Snapshot) error {
	if s.Stages == nil {
		s.Stages = make(map[string]StageStat, NumStages)
	}
	if o.SampleEvery > s.SampleEvery {
		s.SampleEvery = o.SampleEvery
	}
	reads := s.Reads + o.Reads
	writes := s.Writes + o.Writes
	if n := reads + writes; n > 0 {
		s.AvgBatch = (s.AvgBatch*float64(s.Reads+s.Writes) + o.AvgBatch*float64(o.Reads+o.Writes)) / float64(n)
	}
	s.Sampled += o.Sampled
	s.Reads, s.Writes, s.Other = reads, writes, s.Other+o.Other
	if o.Epoch > s.Epoch {
		s.Epoch = o.Epoch
	}
	for name, ostat := range o.Stages {
		cur, ok := s.Stages[name]
		if !ok || cur.Count == 0 {
			s.Stages[name] = ostat
			continue
		}
		if ostat.Count == 0 {
			continue
		}
		a, err := histo.Decode(cur.Wire)
		if err != nil {
			return err
		}
		b, err := histo.Decode(ostat.Wire)
		if err != nil {
			return err
		}
		a.Merge(b)
		s.Stages[name] = stat(a)
	}
	return nil
}
