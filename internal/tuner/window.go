// Package tuner closes the loop between the measurement half of this
// repository (transport stats, latency histograms) and the control half
// (epoch-versioned live reconfiguration): a sliding-window workload
// profiler, an optimizer that scores every live-path quorum configuration
// against the measured read/write mix with the exact availability and
// load machinery from internal/analysis and internal/loadopt, and a
// driver policy that proposes an epoch swap when a different
// configuration wins by a margin and holds the win.
//
// The package sits below internal/rkv (which embeds the profiler and
// driver) and above internal/epoch (whose Params are the optimizer's
// search space) — it never imports the live protocols.
package tuner

import (
	"sync"
	"time"

	"hquorum/internal/codec"
)

// windowBuckets is the ring size of the profiler: the window always
// covers between (windowBuckets-1)/windowBuckets and the full span of
// history, rotating one bucket at a time so old traffic expires without
// per-op timestamps.
const windowBuckets = 8

// heavySlots bounds the Misra-Gries heavy-hitter table that estimates key
// skew. Eight slots resolve any key holding more than ~1/9 of the
// traffic, which is the regime where skew starts to matter for placement.
const heavySlots = 8

// bucket accumulates one slice of the sliding window.
type bucket struct {
	reads, writes uint64
	errors        uint64
	writebacks    uint64
	spared        uint64
	batches       uint64
	batchedOps    uint64
	latSumUs      uint64
}

func (b *bucket) add(o *bucket) {
	b.reads += o.reads
	b.writes += o.writes
	b.errors += o.errors
	b.writebacks += o.writebacks
	b.spared += o.spared
	b.batches += o.batches
	b.batchedOps += o.batchedOps
	b.latSumUs += o.latSumUs
}

// Window is a cheap sliding-window workload profiler. Time is supplied by
// the caller as a monotonic duration (the cluster clock in simulation,
// time.Since(start) on a live node), so the profiler behaves identically
// under the deterministic simulator and on real hardware. All methods are
// safe for concurrent use: the node's event loop observes, while metrics
// endpoints and workload requests snapshot.
type Window struct {
	mu       sync.Mutex
	span     time.Duration
	slice    time.Duration
	buckets  [windowBuckets]bucket
	cur      int
	curStart time.Duration
	started  bool

	heavyHash  [heavySlots]uint64
	heavyCount [heavySlots]uint64
	heavyOps   uint64
}

// NewWindow returns a profiler whose snapshots cover roughly the last
// span of traffic (at least span·(N-1)/N, at most span, N=8 buckets).
// A zero span defaults to 2s.
func NewWindow(span time.Duration) *Window {
	if span <= 0 {
		span = 2 * time.Second
	}
	return &Window{span: span, slice: span / windowBuckets}
}

// Span returns the window's configured span.
func (w *Window) Span() time.Duration {
	return w.span
}

// rotate expires buckets older than the span. Callers hold w.mu.
func (w *Window) rotate(now time.Duration) {
	if !w.started {
		w.started = true
		w.curStart = now
		return
	}
	for now-w.curStart >= w.slice {
		w.cur = (w.cur + 1) % windowBuckets
		w.buckets[w.cur] = bucket{}
		w.curStart += w.slice
		// Decay the heavy-hitter table a quarter per slice so the skew
		// estimate tracks the window rather than all of history.
		for i := range w.heavyCount {
			w.heavyCount[i] -= w.heavyCount[i] / 4
		}
		w.heavyOps -= w.heavyOps / 4
		if now-w.curStart >= time.Duration(windowBuckets)*w.slice {
			// Everything expired; jump instead of spinning.
			for i := range w.buckets {
				w.buckets[i] = bucket{}
			}
			w.curStart = now
		}
	}
}

// Observe records one completed client operation.
func (w *Window) Observe(now time.Duration, read bool, latency time.Duration, failed bool, keyHash uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(now)
	b := &w.buckets[w.cur]
	if read {
		b.reads++
	} else {
		b.writes++
	}
	if failed {
		b.errors++
	}
	us := uint64(latency / time.Microsecond)
	b.latSumUs += us
	w.observeKey(keyHash)
}

// ObserveWriteback records reads that paid a write-back phase — the
// optimizer's measured β, which prices reads at R + β·W messages — and
// reads that were spared it because their quorum contained a write quorum
// and agreed. A window with neither is one where reads owe no write-back
// at all.
func (w *Window) ObserveWriteback(now time.Duration, paid, spared int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(now)
	w.buckets[w.cur].writebacks += uint64(paid)
	w.buckets[w.cur].spared += uint64(spared)
}

// ObserveBatch records one quorum round carrying ops coalesced client
// operations.
func (w *Window) ObserveBatch(now time.Duration, ops int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(now)
	b := &w.buckets[w.cur]
	b.batches++
	b.batchedOps += uint64(ops)
}

// observeKey is Misra-Gries: increment a held slot, claim a free one, or
// decay everyone. Callers hold w.mu.
func (w *Window) observeKey(h uint64) {
	w.heavyOps++
	free := -1
	for i, hh := range w.heavyHash {
		if w.heavyCount[i] == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if hh == h {
			w.heavyCount[i]++
			return
		}
	}
	if free >= 0 {
		w.heavyHash[free] = h
		w.heavyCount[free] = 1
		return
	}
	for i := range w.heavyCount {
		w.heavyCount[i]--
	}
}

// Snapshot sums the live buckets into a Workload.
func (w *Window) Snapshot(now time.Duration) Workload {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(now)
	var sum bucket
	for i := range w.buckets {
		sum.add(&w.buckets[i])
	}
	var top uint64
	for _, c := range w.heavyCount {
		if c > top {
			top = c
		}
	}
	return Workload{
		SpanUs:     uint64(w.span / time.Microsecond),
		Reads:      sum.reads,
		Writes:     sum.writes,
		Errors:     sum.errors,
		Writebacks: sum.writebacks,
		Spared:     sum.spared,
		Batches:    sum.batches,
		BatchedOps: sum.batchedOps,
		LatSumUs:   sum.latSumUs,
		TopKeyOps:  top,
		KeyOps:     w.heavyOps,
	}
}

// Reset clears all history (a node restart must not tune on pre-crash
// traffic).
func (w *Window) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.buckets {
		w.buckets[i] = bucket{}
	}
	w.cur = 0
	w.curStart = 0
	w.started = false
	w.heavyHash = [heavySlots]uint64{}
	w.heavyCount = [heavySlots]uint64{}
	w.heavyOps = 0
}

// Workload is one profiler snapshot: the measured mix the optimizer
// scores configurations against. It is a plain value, encodable for the
// msgWorkload wire exchange.
type Workload struct {
	SpanUs     uint64 // window span, microseconds
	Reads      uint64
	Writes     uint64
	Errors     uint64
	Writebacks uint64 // reads that paid a write-back phase
	Spared     uint64 // reads spared it: a write quorum already agreed on their version
	Batches    uint64 // quorum rounds
	BatchedOps uint64 // client ops carried by those rounds
	LatSumUs   uint64 // summed op latency, microseconds
	TopKeyOps  uint64 // ops on the heaviest key (Misra-Gries estimate)
	KeyOps     uint64 // ops the key tracker has seen (decayed)
}

// Ops returns the total operations in the window.
func (wl Workload) Ops() uint64 { return wl.Reads + wl.Writes }

// ReadFrac returns the measured read fraction (0.5 when idle, so an empty
// window scores like a balanced mix instead of a degenerate one).
func (wl Workload) ReadFrac() float64 {
	if wl.Ops() == 0 {
		return 0.5
	}
	return float64(wl.Reads) / float64(wl.Ops())
}

// ReadHeavy reports whether the window justifies holding read leases:
// at least minOps operations measured and a read fraction of at least
// minFrac. With minOps and minFrac both zero every window qualifies —
// always-grant mode, used by chaos cells that exercise invalidation.
func (wl Workload) ReadHeavy(minOps uint64, minFrac float64) bool {
	if wl.Ops() < minOps {
		return false
	}
	return wl.ReadFrac() >= minFrac
}

// betaMinSamples is how many reads must have met the write-back question
// — paid one or been spared it — before a β below 1 is believed. β depends
// on pick-cache warm-up and on which quorum a session happens to hold; a
// handful of reads right after a swap or a restart measures 0 or 1 by
// luck, and a tuner that trusts it swaps twice where the mix asked once.
const betaMinSamples = 32

// owesWriteback reports whether the window's reads owe a write-back
// unless spared it. A window in which reads neither paid nor were spared
// is a deployment running without write-back: nobody pays.
func (wl Workload) owesWriteback() bool { return wl.Writebacks+wl.Spared > 0 }

// WritebackFor returns the share of reads that would pay a write-back on
// a configuration whose read picks contain a write quorum with
// probability covers: the measured β was earned on covering picks only —
// every other read always pays. Too few samples (betaMinSamples) price
// every read at a full write-back, as a non-covering current config's
// measured β = 1 does: conservative for everyone.
func (wl Workload) WritebackFor(covers float64) float64 {
	switch {
	case !wl.owesWriteback():
		return 0
	case wl.Writebacks+wl.Spared < betaMinSamples:
		return 1
	}
	return covers*wl.WritebackFrac() + (1 - covers)
}

// WritebackFrac returns β, the measured fraction of reads that paid a
// write-back phase.
func (wl Workload) WritebackFrac() float64 {
	if wl.Reads == 0 {
		return 0
	}
	f := float64(wl.Writebacks) / float64(wl.Reads)
	if f > 1 {
		f = 1
	}
	return f
}

// AvgBatch returns the mean ops per quorum round (1 when unbatched).
func (wl Workload) AvgBatch() float64 {
	if wl.Batches == 0 {
		return 1
	}
	return float64(wl.BatchedOps) / float64(wl.Batches)
}

// AvgLatency returns the mean op latency over the window.
func (wl Workload) AvgLatency() time.Duration {
	if wl.Ops() == 0 {
		return 0
	}
	return time.Duration(wl.LatSumUs/wl.Ops()) * time.Microsecond
}

// KeySkew returns the estimated fraction of traffic on the hottest key.
func (wl Workload) KeySkew() float64 {
	if wl.KeyOps == 0 {
		return 0
	}
	return float64(wl.TopKeyOps) / float64(wl.KeyOps)
}

// Encode appends the workload's wire form (varint fields) to b.
func (wl Workload) Encode(b []byte) []byte {
	for _, v := range [...]uint64{
		wl.SpanUs, wl.Reads, wl.Writes, wl.Errors, wl.Writebacks,
		wl.Batches, wl.BatchedOps, wl.LatSumUs, wl.TopKeyOps, wl.KeyOps, wl.Spared,
	} {
		b = codec.AppendUvarint(b, v)
	}
	return b
}

// DecodeWorkload parses the wire form produced by Encode.
func DecodeWorkload(data []byte) (Workload, error) {
	r := codec.NewReader(string(data))
	var wl Workload
	for _, f := range [...]*uint64{
		&wl.SpanUs, &wl.Reads, &wl.Writes, &wl.Errors, &wl.Writebacks,
		&wl.Batches, &wl.BatchedOps, &wl.LatSumUs, &wl.TopKeyOps, &wl.KeyOps, &wl.Spared,
	} {
		*f = r.Uvarint()
	}
	return wl, r.Err()
}

// Mix returns src's deployment under a hypothetical mix — ops operations,
// readFrac of them reads, paying and being spared write-backs in src's
// measured proportions (neither, where src's reads owe none) — what
// `quorumctl tune -read-frac` scores when the operator overrides the
// measured mix. The zero src is a deployment without write-back.
func Mix(src Workload, readFrac float64, ops uint64) Workload {
	if readFrac < 0 {
		readFrac = 0
	}
	if readFrac > 1 {
		readFrac = 1
	}
	reads := uint64(readFrac * float64(ops))
	wl := Workload{Reads: reads, Writes: ops - reads}
	if src.owesWriteback() {
		wl.Writebacks = uint64(src.WritebackFrac() * float64(reads))
		wl.Spared = reads - wl.Writebacks
	}
	return wl
}
