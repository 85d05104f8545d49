package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord: log files read back at recovery are hostile input —
// a torn write, a bit flip at rest, or a truncated copy. Decoding
// arbitrary bytes must return ErrCorrupt or a record, never panic or
// over-read, and a successful decode must be canonical: re-encoding the
// record reproduces exactly the bytes consumed. The committed corpus
// under testdata/fuzz seeds real record shapes; `go test` replays it
// even without -fuzz.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range recordSamples() {
		f.Add(AppendRecord(nil, rec))
	}
	// Malformed shapes: empty, torn prefix, huge length, bad CRC.
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add(bytes.Repeat([]byte{0xff}, 10))
	f.Add(flipByte(AppendRecord(nil, Record{Kind: KindClock, Counter: 7}), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		again := AppendRecord(nil, rec)
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("decode not canonical:\n in  %x\n out %x", data[:n], again)
		}
		// A stream of records scans without panicking too.
		scanBuf(data, func(Record) {})
	})
}

// recordSamples is the canonical set of record shapes: one per kind
// plus edge values (empty key/value, max counters). The corpus test
// commits their encodings as seed files.
func recordSamples() []Record {
	return []Record{
		{Kind: KindPut, Key: "k", Counter: 1, Writer: 0, Value: "v"},
		{Kind: KindPut, Key: "", Counter: 0, Writer: 0, Value: ""},
		{Kind: KindPut, Key: "key-00042", Counter: 1<<64 - 1, Writer: 12, Value: "payload-bytes"},
		{Kind: KindClock, Counter: 4096},
		{Kind: KindClock, Counter: 1<<64 - 1},
	}
}
