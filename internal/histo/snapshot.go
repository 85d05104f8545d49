// Compact binary snapshot of a histogram — the mergeable wire form stage
// histograms ship over the metrics endpoint. The format is sparse and
// varint-packed: only nonzero buckets are written, as (index-delta,
// count) pairs, so an idle stage costs a handful of bytes and a busy one
// grows with the number of distinct latency bands, not the 3776-bucket
// array. Decoding is hostile-input guarded like the transport codec:
// every field is bounds-checked, totals are recomputed from the buckets
// instead of trusted, and malformed input returns an error, never a
// panic or a giant allocation.
package histo

import (
	"errors"
	"fmt"
	"math"

	"hquorum/internal/codec"
)

// snapVersion stamps the wire form so a future layout change can coexist
// with archived snapshots.
const snapVersion = 1

// ErrBadSnapshot reports a malformed or hostile binary snapshot.
var ErrBadSnapshot = errors.New("histo: malformed snapshot")

// AppendBinary appends h's compact wire form to b and returns the
// extended slice. The encoding round-trips exactly: Decode returns a
// histogram with identical counts, sum, min and max.
func (h *Histogram) AppendBinary(b []byte) []byte {
	b = codec.AppendUvarint(b, snapVersion)
	nonzero := 0
	for _, c := range h.counts {
		if c != 0 {
			nonzero++
		}
	}
	b = codec.AppendUvarint(b, uint64(nonzero))
	prev := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		b = codec.AppendUvarint(b, uint64(i-prev))
		b = codec.AppendUvarint(b, c)
		prev = i
	}
	b = codec.AppendUvarint(b, math.Float64bits(h.sum))
	b = codec.AppendUvarint(b, uint64(h.max))
	// min is -1 on an empty histogram; shift keeps the varint small.
	b = codec.AppendUvarint(b, uint64(h.min+1))
	return b
}

// Decode parses a snapshot produced by AppendBinary. The whole input
// must be consumed; trailing bytes are an error (callers embedding the
// form in a larger payload should length-prefix it).
func Decode(data []byte) (*Histogram, error) {
	r := codec.NewReader(string(data))
	if v := r.Uvarint(); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSnapshot, v)
	}
	nonzero := r.Uvarint()
	if nonzero > numBuckets {
		return nil, fmt.Errorf("%w: %d buckets > %d", ErrBadSnapshot, nonzero, numBuckets)
	}
	h := New()
	idx := -1
	for k := uint64(0); k < nonzero; k++ {
		delta := r.Uvarint()
		count := r.Uvarint()
		if r.Err() != nil {
			return nil, ErrBadSnapshot
		}
		if k == 0 {
			idx = int(delta)
		} else {
			// Indices must strictly increase: a zero delta would alias a
			// bucket and let a hostile sender inflate counts past the
			// declared bucket total.
			if delta == 0 {
				return nil, fmt.Errorf("%w: non-increasing bucket index", ErrBadSnapshot)
			}
			idx += int(delta)
		}
		if idx < 0 || idx >= numBuckets || count == 0 {
			return nil, fmt.Errorf("%w: bucket %d count %d", ErrBadSnapshot, idx, count)
		}
		h.counts[idx] = count
		if h.total+count < h.total {
			return nil, fmt.Errorf("%w: count overflow", ErrBadSnapshot)
		}
		h.total += count
	}
	h.sum = math.Float64frombits(r.Uvarint())
	h.max = int64(r.Uvarint())
	h.min = int64(r.Uvarint()) - 1
	if r.Err() != nil || r.Len() != 0 {
		return nil, ErrBadSnapshot
	}
	if math.IsNaN(h.sum) || math.IsInf(h.sum, 0) || h.sum < 0 {
		return nil, fmt.Errorf("%w: bad sum", ErrBadSnapshot)
	}
	if h.total == 0 {
		if h.sum != 0 || h.max != 0 || h.min != -1 {
			return nil, fmt.Errorf("%w: non-canonical empty", ErrBadSnapshot)
		}
		return h, nil
	}
	// min/max must be consistent with the buckets they claim to summarize:
	// each must land in the first/last nonzero bucket. Recorded values are
	// clamped non-negative, so negative extremes are hostile too.
	if h.min < 0 || h.max < h.min {
		return nil, fmt.Errorf("%w: min %d max %d", ErrBadSnapshot, h.min, h.max)
	}
	first, last := -1, -1
	for i, c := range h.counts {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if bucketIndex(h.min) != first || bucketIndex(h.max) != last {
		return nil, fmt.Errorf("%w: extremes outside buckets", ErrBadSnapshot)
	}
	return h, nil
}
