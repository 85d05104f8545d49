package codec

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// wire types for the tests.
type tPing struct {
	Seq  uint64
	Text string
}

type tAck struct{ Seq uint64 }

// tOdd has no registration anywhere: it must not encode.
type tOdd struct {
	A int
	B []string
}

func encPing(b []byte, v any) []byte {
	m := v.(tPing)
	b = AppendUvarint(b, m.Seq)
	return AppendString(b, m.Text)
}

func decPing(data string) (any, error) {
	r := NewReader(data)
	m := tPing{Seq: r.Uvarint(), Text: r.String()}
	return m, r.Err()
}

func encAck(b []byte, v any) []byte { return AppendUvarint(b, v.(tAck).Seq) }

func decAck(data string) (any, error) {
	r := NewReader(data)
	m := tAck{Seq: r.Uvarint()}
	return m, r.Err()
}

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(1, tPing{}, encPing, decPing)
	reg.Register(2, tAck{}, encAck, decAck)
	return reg
}

// roundTrip encodes every value into one stream and decodes it back.
func roundTrip(t *testing.T, reg *Registry, values []any) []any {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, reg)
	total := 0
	for i, v := range values {
		n, err := enc.Encode(uint64(i), v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		total += n
	}
	if total != buf.Len() {
		t.Fatalf("Encode reported %d bytes, stream has %d", total, buf.Len())
	}
	dec := NewDecoder(bufio.NewReader(&buf), reg)
	var out []any
	for i := range values {
		from, v, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if from != uint64(i) {
			t.Fatalf("decode %d: from=%d", i, from)
		}
		out = append(out, v)
	}
	if _, _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		t.Fatalf("stream tail: %v, want EOF", err)
	}
	if dec.BytesRead() != uint64(total) {
		t.Fatalf("BytesRead %d, want %d", dec.BytesRead(), total)
	}
	return out
}

// TestRoundTripBinaryAndFallback: registered types round-trip, and there
// is no fallback behind them — an unregistered type (and any type on a
// nil registry) fails its Encode with ErrUnregistered naming the type,
// leaves the writer untouched, and the stream stays decodable.
func TestRoundTripBinaryAndFallback(t *testing.T) {
	reg := testRegistry()
	values := []any{
		tPing{Seq: 0, Text: ""},
		tPing{Seq: 1<<64 - 1, Text: "hello, 世界"},
		tAck{Seq: 42},
	}
	got := roundTrip(t, reg, values)
	for i := range values {
		if !reflect.DeepEqual(got[i], values[i]) {
			t.Fatalf("value %d: got %#v, want %#v", i, got[i], values[i])
		}
	}

	var buf bytes.Buffer
	enc := NewEncoder(&buf, reg)
	if _, err := enc.Encode(1, tAck{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	n, err := enc.Encode(1, tOdd{A: -7, B: []string{"x", "y"}})
	if !errors.Is(err, ErrUnregistered) || !strings.Contains(err.Error(), "codec.tOdd") {
		t.Fatalf("unregistered encode: err = %v, want ErrUnregistered naming codec.tOdd", err)
	}
	if n != 0 || buf.Len() != before {
		t.Fatalf("unregistered encode wrote %d bytes (stream %d -> %d)", n, before, buf.Len())
	}
	if _, err := enc.Encode(1, tAck{Seq: 2}); err != nil {
		t.Fatalf("encoder unusable after a rejected value: %v", err)
	}
	dec := NewDecoder(bufio.NewReader(&buf), reg)
	for want := uint64(1); want <= 2; want++ {
		if _, v, err := dec.Decode(); err != nil || v != (tAck{Seq: want}) {
			t.Fatalf("decode around the rejected value: %#v, %v", v, err)
		}
	}

	buf.Reset()
	if _, err := NewEncoder(&buf, nil).Encode(1, tAck{Seq: 1}); !errors.Is(err, ErrUnregistered) || buf.Len() != 0 {
		t.Fatalf("nil registry: err = %v, wrote %d bytes", err, buf.Len())
	}
}

func TestRandomizedRoundTrip(t *testing.T) {
	reg := testRegistry()
	rng := rand.New(rand.NewSource(1))
	var values []any
	for i := 0; i < 500; i++ {
		if rng.Intn(2) == 0 {
			b := make([]byte, rng.Intn(200))
			rng.Read(b)
			values = append(values, tPing{Seq: rng.Uint64(), Text: string(b)})
		} else {
			values = append(values, tAck{Seq: rng.Uint64()})
		}
	}
	got := roundTrip(t, reg, values)
	for i := range values {
		if !reflect.DeepEqual(got[i], values[i]) {
			t.Fatalf("value %d: got %#v, want %#v", i, got[i], values[i])
		}
	}
}

func TestRegistryRules(t *testing.T) {
	reg := testRegistry()
	reg.Register(1, tPing{}, encPing, decPing) // idempotent re-registration

	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("tag conflict", func() { reg.Register(1, tAck{}, encAck, decAck) })
	expectPanic("type conflict", func() { reg.Register(9, tPing{}, encPing, decPing) })
	expectPanic("retired tag 0", func() { reg.Register(0, tAck{}, encAck, decAck) })
}

// TestRegisterWhileCoding registers fresh types while other goroutines
// encode and decode through the same registry. Lookups read the table
// without a lock, so under -race this checks that a registration never
// writes to a table a reader may hold; afterwards every registration,
// idempotent repeats included, must be visible.
func TestRegisterWhileCoding(t *testing.T) {
	reg := testRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			enc := NewEncoder(&buf, reg)
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				if _, err := enc.Encode(uint64(g), tAck{Seq: seq}); err != nil {
					t.Error(err)
					return
				}
				// Small frames carry a one-byte length prefix.
				if _, v, err := DecodeBody(buf.Bytes()[1:], reg); err != nil || v != (tAck{Seq: seq}) {
					t.Errorf("decode while registering: %#v, %v", v, err)
					return
				}
			}
		}(g)
	}
	const extra = 200
	samples := make([]any, extra)
	for i := range samples {
		// Every array length is a distinct type.
		sample := reflect.Zero(reflect.ArrayOf(i+1, reflect.TypeOf(byte(0)))).Interface()
		samples[i] = sample
		enc := func(b []byte, v any) []byte { return b }
		dec := func(string) (any, error) { return sample, nil }
		reg.Register(uint64(100+i), sample, enc, dec)
		reg.Register(uint64(100+i), sample, enc, dec)
	}
	close(stop)
	wg.Wait()
	got := roundTrip(t, reg, samples)
	for i := range samples {
		if got[i] != samples[i] {
			t.Fatalf("type %d: got %#v, want %#v", i, got[i], samples[i])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	reg := testRegistry()

	// Unknown tag — the retired tag 0 is one like any other, whatever
	// payload follows it.
	for _, tag := range []uint64{99, 0} {
		body := AppendUvarint(nil, 5) // from
		body = AppendUvarint(body, tag)
		body = append(body, "payload"...)
		if _, _, err := DecodeBody(body, reg); !errors.Is(err, ErrUnknownTag) {
			t.Fatalf("tag %d: %v, want ErrUnknownTag", tag, err)
		}
	}
	// Truncated payload inside a registered type.
	body := AppendUvarint(nil, 5)
	body = AppendUvarint(body, 1)                   // tPing
	body = AppendUvarint(body, 7)                   // seq
	body = append(body, AppendUvarint(nil, 100)...) // claims 100-byte string, stream ends
	if _, _, err := DecodeBody(body, reg); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated string: %v, want ErrTruncated", err)
	}
	// Oversized frame length prefix.
	var buf bytes.Buffer
	buf.Write(AppendUvarint(nil, MaxFrame+1))
	dec := NewDecoder(bufio.NewReader(&buf), reg)
	if _, _, err := dec.Decode(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReaderSticky(t *testing.T) {
	r := NewReader("")
	if r.Uvarint() != 0 || r.String() != "" || r.Err() == nil {
		t.Fatal("empty reader must fail sticky")
	}
	if r.Len() != 0 {
		t.Fatal("failed reader leaked data")
	}
}

func BenchmarkEncodeBinary(b *testing.B) {
	reg := testRegistry()
	enc := NewEncoder(io.Discard, reg)
	msg := tPing{Seq: 123456, Text: "sixteen byte val"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(7, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	reg := testRegistry()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, reg)
	if _, err := enc.Encode(7, tPing{Seq: 123456, Text: "sixteen byte val"}); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	body := frame[1:] // single-byte length prefix for this small frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBody(body, reg); err != nil {
			b.Fatal(err)
		}
	}
}
