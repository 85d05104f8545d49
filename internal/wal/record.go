// Package wal implements the durable storage backend behind the rkv
// replica store: one segmented append-only log per replica with group
// commit, whole-store fuzzy checkpoints with segment truncation, and
// replay-on-restart.
//
// Every logged event is one self-delimiting record:
//
//	record := uvarint(len(crc+body)) crc32c(body) body
//	body   := uvarint(kind) fields...
//
// The framing reuses the codec package's idiom — uvarint length prefix,
// varint/length-prefixed-string fields, a hard size bound so a corrupt
// length cannot force a giant allocation — plus a CRC32-C over the body
// so a torn or bit-rotted tail is detected, not loaded. Decoders treat
// any malformed record as the end of valid history: replay stops at the
// last record that checks out, which is exactly the crash-recovery
// contract (an interrupted append may leave a partial record; nothing
// after it was acknowledged).
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"hquorum/internal/codec"
)

// Kind discriminates record types within the log.
type Kind uint8

const (
	// KindPut is a versioned key write — the replica store's monotonic
	// merge unit. Replaying a put is idempotent: higher version wins,
	// so overlapping snapshot and segment history converges.
	KindPut Kind = 1
	// KindClock is a clock lease: the node promises never to stamp a
	// version counter above Counter without first logging a higher
	// lease. Replay raises the node's clock to the lease so a restarted
	// node cannot reuse a pre-crash (counter, writer) stamp — which may
	// survive on remote replicas — for a different value.
	KindClock Kind = 2
)

// MaxRecord bounds one record frame (crc + body). It mirrors
// codec.MaxFrame: no wire message can carry a value bigger than a
// frame, so no legitimate record can exceed it either — anything larger
// in a length prefix is corruption.
const MaxRecord = codec.MaxFrame

// ErrCorrupt reports a record that is structurally invalid: a torn
// length prefix, a length beyond MaxRecord or the available bytes, a
// CRC mismatch, an unknown kind, or trailing junk inside the body.
// Replay treats it as the torn tail of a crashed write and stops.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record is one logged event. Shard is the owner's map-shard index for
// callers that carry one; the log neither encodes nor reads it — every
// record goes to the one log and replay routes by key.
type Record struct {
	Shard   int
	Kind    Kind
	Key     string // KindPut only
	Counter uint64 // put: version counter; clock: leased-to bound
	Writer  uint64 // KindPut only: the stamping node's ID
	Value   string // KindPut only
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendBody appends rec's body (kind + fields, no framing) to dst.
func appendBody(dst []byte, rec Record) []byte {
	dst = codec.AppendUvarint(dst, uint64(rec.Kind))
	switch rec.Kind {
	case KindPut:
		dst = codec.AppendString(dst, rec.Key)
		dst = codec.AppendUvarint(dst, rec.Counter)
		dst = codec.AppendUvarint(dst, rec.Writer)
		dst = codec.AppendString(dst, rec.Value)
	case KindClock:
		dst = codec.AppendUvarint(dst, rec.Counter)
	}
	return dst
}

// appendFrame appends the framed form of an encoded body to dst.
func appendFrame(dst []byte, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(4+len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

// AppendRecord appends rec as one framed, CRC-guarded record and
// returns the extended slice. The hot path inside the log reuses a
// scratch buffer instead; this form is for tests and tools.
func AppendRecord(buf []byte, rec Record) []byte {
	return appendFrame(buf, appendBody(nil, rec))
}

// DecodeRecord parses one framed record from the front of data and
// returns it with the number of bytes consumed. Any malformed input
// returns ErrCorrupt — decoding arbitrary bytes must never panic,
// over-read, or allocate beyond MaxRecord.
func DecodeRecord(data []byte) (Record, int, error) {
	size, n := binary.Uvarint(data)
	if n <= 0 {
		return Record{}, 0, ErrCorrupt
	}
	// Length guard: at least the CRC plus a one-byte body, at most
	// MaxRecord, and never past the bytes actually present.
	if size < 5 || size > MaxRecord || size > uint64(len(data)-n) {
		return Record{}, 0, ErrCorrupt
	}
	frame := data[n : n+int(size)]
	body := frame[4:]
	if binary.LittleEndian.Uint32(frame) != crc32.Checksum(body, crcTable) {
		return Record{}, 0, ErrCorrupt
	}
	rec, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n + int(size), nil
}

// decodeBody parses a record body through the codec Reader's sticky
// error, rejecting unknown kinds and trailing bytes.
func decodeBody(body []byte) (Record, error) {
	rd := codec.NewReader(string(body))
	rec := Record{Kind: Kind(rd.Uvarint())}
	switch rec.Kind {
	case KindPut:
		rec.Key = rd.String()
		rec.Counter = rd.Uvarint()
		rec.Writer = rd.Uvarint()
		rec.Value = rd.String()
	case KindClock:
		rec.Counter = rd.Uvarint()
	default:
		rd.Fail()
	}
	if rd.Err() != nil || rd.Len() != 0 {
		return Record{}, ErrCorrupt
	}
	return rec, nil
}

// scanBuf walks the framed records at the front of data, invoking fn
// (if non-nil) for each valid one, and returns the byte offset just
// past the last valid record — the length a recovering log truncates
// its active segment to.
func scanBuf(data []byte, fn func(Record)) int {
	off := 0
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			break
		}
		if fn != nil {
			fn(rec)
		}
		off += n
	}
	return off
}
