package codec

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecodeBody: frame bodies from the wire are attacker-ish input (a
// corrupt peer, a truncated TCP stream) — decoding arbitrary bytes must
// return an error or a value, never panic or over-read. The seed corpus
// covers each registered tag, the retired tag 0, and classic varint edge
// cases; `go test` replays it even without -fuzz.
func FuzzDecodeBody(f *testing.F) {
	reg := testRegistry()

	// Seed with well-formed frames of every kind...
	seed := func(v any) {
		var buf bytes.Buffer
		if _, err := NewEncoder(&buf, reg).Encode(3, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(tPing{Seq: 1, Text: "seed"})
	seed(tAck{Seq: 2})
	// ...and with malformed ones: the retired tag 0 first, bare and with a
	// payload behind it.
	f.Add(AppendUvarint(AppendUvarint(nil, 3), 0))
	f.Add(append(AppendUvarint(AppendUvarint(nil, 3), 0), "once a gob envelope"...))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // varint overflow
	f.Add(AppendUvarint(AppendUvarint(nil, 1), 99))                           // unknown tag
	f.Add(AppendString(AppendUvarint(AppendUvarint(nil, 1), 1), "x"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// As a raw body.
		_, _, _ = DecodeBody(data, reg)
		// As a framed stream (prefix may be embedded in data itself).
		dec := NewDecoder(bufio.NewReader(bytes.NewReader(data)), reg)
		for i := 0; i < 4; i++ {
			if _, _, err := dec.Decode(); err != nil {
				break
			}
		}
	})
}
