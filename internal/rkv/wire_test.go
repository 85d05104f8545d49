package rkv

import (
	"bufio"
	"bytes"
	"fmt"
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
		msgReadBatch{Seq: 1<<64 - 1, Keys: []string{""}, Want: "\x01"},
		msgReadBatchReply{Seq: 7, Items: []item{{Ver: Version{Counter: 9, Writer: 15}, Val: "hello"}}},
		msgReadBatchReply{Items: []item{{}}}, // all zero
		msgWriteBatch{Seq: 1, Items: []item{{"", Version{Counter: 1 << 40, Writer: 3}, string(make([]byte, 4096))}}},
		msgWriteBatch{Seq: 2, Items: []item{{"", Version{Counter: 5}, "日本語 value"}}},
		msgWriteAck{Seq: 3},
		msgWriteAck{Epoch: 1<<64 - 1, Seq: 1<<64 - 1},
		msgReadBatch{Seq: 4, Keys: []string{"", "k1", "日本語 key"}, Want: "\x06"},
		msgReadBatch{Seq: 4, Keys: []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}, Want: "\xff\x01"},
		msgReadBatch{Seq: 5}, // empty batch round-trips as nil
		msgReadBatchReply{
			Seq:      6,
			Unsynced: true,
			Items:    []item{{Ver: Version{Counter: 9, Writer: 15}, Val: "x"}, {}},
		},
		msgWriteBatch{
			Seq:   7,
			Items: []item{{"a", Version{Counter: 1 << 40, Writer: 3}, string(make([]byte, 2048))}, {"b", Version{Counter: 2, Writer: 0}, ""}},
		},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m := msgWriteBatch{Epoch: rng.Uint64(), Seq: rng.Uint64()}
		for k := rng.Intn(4) + 1; k > 0; k-- {
			val := make([]byte, rng.Intn(64))
			rng.Read(val)
			ver := Version{Counter: rng.Uint64(), Writer: cluster.NodeID(rng.Intn(1 << 20))}
			m.Items = append(m.Items, item{Key: string(val[:len(val)/2]), Ver: ver, Val: string(val)})
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

// TestReadBatchWantMustFitKeys: a msgReadBatch's want-value flags are
// exactly one bit per key — ceil(n/8) bytes, nothing set past bit n — and
// any other flag string fails to decode.
func TestReadBatchWantMustFitKeys(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	frame := func(keys int, want string) []byte {
		var body []byte
		body = codec.AppendUvarint(body, 1) // from
		body = codec.AppendUvarint(body, tagReadBatch)
		body = codec.AppendUvarint(body, 2) // epoch
		body = codec.AppendUvarint(body, 3) // seq
		body = codec.AppendUvarint(body, uint64(keys))
		for i := 0; i < keys; i++ {
			body = codec.AppendString(body, fmt.Sprintf("k%d", i))
		}
		return codec.AppendString(body, want)
	}
	for _, c := range []struct {
		keys int
		want string
		ok   bool
	}{
		{0, "", true},
		{3, "\x05", true},
		{8, "\xff", true},
		{9, "\xff\x01", true},
		{0, "\x00", false},     // flags for keys that are not there
		{3, "", false},         // keys without flags
		{3, "\x05\x00", false}, // a byte too many
		{9, "\xff", false},     // a byte too few
		{3, "\x08", false},     // flag 3 of a 3-key batch
		{9, "\xff\x02", false}, // flag 9 of a 9-key batch
	} {
		_, v, err := codec.DecodeBody(frame(c.keys, c.want), reg)
		if (err == nil) != c.ok {
			t.Errorf("%d keys, want %q: decoded %#v, err %v; want ok=%t", c.keys, c.want, v, err, c.ok)
		}
	}
	// A flag string is never optional: the frame a sender without flags
	// would write is truncated.
	body := frame(1, "")
	if _, _, err := codec.DecodeBody(body[:len(body)-1], reg); err == nil {
		t.Error("a one-key batch with no flag string decoded")
	}
}

// TestReadBatchRepliesValuesOnlyForReads: a round of reads and writes
// asks each phase-1 member for the values of its reads alone; the
// members answer "" for the writes' keys and every read still returns
// the value written before it.
func TestReadBatchRepliesValuesOnlyForReads(t *testing.T) {
	s, writer, session := oneRoundSim(t, 67, hgrid44All(), true, Config{Window: 1, Batch: 8})
	keys := []string{"r0", "w1", "r2", "w3"} // s.burst's names for "RWRW"
	for _, k := range keys {
		s.do(writer, Op{Kind: OpWrite, Key: k, Value: "old-" + k})
	}
	s.do(session, Op{Kind: OpRead, Key: "prime"})
	var reqs []msgReadBatch
	var reps []msgReadBatchReply
	s.park = func(from, to cluster.NodeID, msg any) bool {
		switch m := msg.(type) {
		case msgReadBatch:
			if from == cluster.NodeID(session) {
				reqs = append(reqs, m)
			}
		case msgReadBatchReply:
			if to == cluster.NodeID(session) {
				reps = append(reps, m)
			}
		}
		return false
	}
	ops := s.burst(session, "RWRW")
	s.wait(ops...)
	if len(reqs) == 0 || len(reps) == 0 {
		t.Fatalf("saw %d phase-1 frames and %d replies", len(reqs), len(reps))
	}
	for _, m := range reqs {
		if got := fmt.Sprint(m.Keys); got != fmt.Sprint(keys) || m.Want != "\x05" {
			t.Fatalf("phase 1 asked for %v with flags %q, want [r0 w1 r2 w3] with %q", got, m.Want, "\x05")
		}
	}
	// A member that missed a key's write answers its zero version; one
	// that holds it answers the value too if, and only if, it was asked.
	held := make([]int, len(keys))
	for _, m := range reps {
		for i, it := range m.Items {
			want := ""
			if it.Ver != (Version{}) {
				held[i]++
				if keys[i][0] == 'r' {
					want = "old-" + keys[i]
				}
			}
			if it.Val != want {
				t.Fatalf("a member answered %+v for %v: want the reads' values and \"\" for the writes'", m.Items, keys)
			}
		}
	}
	for i, n := range held {
		if n == 0 {
			t.Fatalf("no member answered key %d's version: the test wrote nothing there", i)
		}
	}
	for _, p := range ops {
		if p.Kind == OpRead && p.Value != "old-"+p.Key {
			t.Errorf("read of %s returned %q", p.Key, p.Value)
		}
	}
	s.checkHistory()
}

func BenchmarkWireEncodeWrite(b *testing.B) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	enc := codec.NewEncoder(discard{}, reg)
	m := msgWriteBatch{Seq: 123, Items: []item{{"", Version{Counter: 456, Writer: 7}, "benchmark value"}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(7, m); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
