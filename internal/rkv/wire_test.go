package rkv

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
)

// TestBinaryWireRoundTrip: every protocol message survives the binary
// codec byte-for-value, including size-0 and huge fields, the classic
// register's batch of one on key "", and randomized write batches.
func TestBinaryWireRoundTrip(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	RegisterBinaryWire(reg) // idempotent

	msgs := []any{
		msgReadBatch{Seq: 1<<64 - 1, Keys: []string{""}},
		msgReadBatchReply{Seq: 7, Vers: []Version{{Counter: 9, Writer: 15}}, Vals: []string{"hello"}},
		msgReadBatchReply{Vers: []Version{{}}, Vals: []string{""}}, // all zero
		msgWriteBatch{Seq: 1, Keys: []string{""}, Vers: []Version{{Counter: 1 << 40, Writer: 3}}, Vals: []string{string(make([]byte, 4096))}},
		msgWriteBatch{Seq: 2, Keys: []string{""}, Vers: []Version{{Counter: 5}}, Vals: []string{"日本語 value"}},
		msgWriteAck{Seq: 3},
		msgWriteAck{Epoch: 1<<64 - 1, Seq: 1<<64 - 1},
		msgReadBatch{Seq: 4, Keys: []string{"", "k1", "日本語 key"}},
		msgReadBatch{Seq: 5}, // empty batch round-trips as nil
		msgReadBatchReply{
			Seq:      6,
			Unsynced: true,
			Vers:     []Version{{Counter: 9, Writer: 15}, {}},
			Vals:     []string{"x", ""},
		},
		msgWriteBatch{
			Seq:  7,
			Keys: []string{"a", "b"},
			Vers: []Version{{Counter: 1 << 40, Writer: 3}, {Counter: 2, Writer: 0}},
			Vals: []string{string(make([]byte, 2048)), ""},
		},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m := msgWriteBatch{Epoch: rng.Uint64(), Seq: rng.Uint64()}
		for k := rng.Intn(4) + 1; k > 0; k-- {
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			m.Keys = append(m.Keys, string(val[:len(val)/2]))
			m.Vers = append(m.Vers, Version{Counter: rng.Uint64(), Writer: cluster.NodeID(rng.Intn(1 << 20))})
			m.Vals = append(m.Vals, string(val))
		}
		msgs = append(msgs, m)
	}
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf, reg)
	for i, m := range msgs {
		if _, err := enc.Encode(uint64(i), m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
	}
	dec := codec.NewDecoder(bufio.NewReader(&buf), reg)
	for i, want := range msgs {
		from, got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if from != uint64(i) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %d: from=%d got %#v want %#v", i, from, got, want)
		}
	}
}

// TestBatchDecodeRejectsHostileCount: a frame claiming more batch elements
// than its payload could possibly hold must fail cleanly instead of
// allocating element slices sized by the attacker.
func TestBatchDecodeRejectsHostileCount(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	for _, tag := range []uint64{tagReadBatch, tagReadBatchRep, tagWriteBatch} {
		// Body: from=1, tag, then payload {seq=1, count=2^40} and nothing else.
		var body []byte
		body = codec.AppendUvarint(body, 1)
		body = codec.AppendUvarint(body, tag)
		body = codec.AppendUvarint(body, 1)
		body = codec.AppendUvarint(body, 1<<40)
		if _, _, err := codec.DecodeBody(body, reg); err == nil {
			t.Fatalf("tag %#x: hostile element count decoded without error", tag)
		}
	}
}

func BenchmarkWireEncodeWrite(b *testing.B) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	enc := codec.NewEncoder(discard{}, reg)
	m := msgWriteBatch{Seq: 123, Keys: []string{""}, Vers: []Version{{Counter: 456, Writer: 7}}, Vals: []string{"benchmark value"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(7, m); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
