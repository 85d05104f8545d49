package dmutex

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
)

// TestBinaryWireRoundTrip: all seven mutex messages survive the binary
// codec, and registration is idempotent.
func TestBinaryWireRoundTrip(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	RegisterBinaryWire(reg) // idempotent

	rng := rand.New(rand.NewSource(5))
	id := func() ReqID {
		return ReqID{TS: rng.Uint64(), Origin: cluster.NodeID(rng.Intn(1 << 16))}
	}
	msgs := []any{
		msgRequest{ID: id()},
		msgGrant{ID: id()},
		msgFailed{ID: id()},
		msgInquire{ID: id()},
		msgRelinquish{ID: id()},
		msgRelease{ID: id()},
		msgBusy{ID: id()},
		msgRequest{}, // zero value
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

// TestBinaryWireTagsDisjoint: dmutex and rkv registrations coexist in one
// registry — the tag blocks must not collide (rkv owns 0x10, dmutex 0x20).
// The retired 0x20-0x26 stay unbound, and the tag past the live block is
// free.
func TestBinaryWireTagsDisjoint(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("tag collision: %v", r)
		}
	}()
	// Probe types on the boundary tags must not be already taken.
	type probe struct{ X uint64 }
	type retired struct{ X uint64 }
	reg.Register(0x26, retired{},
		func(b []byte, v any) []byte { return codec.AppendUvarint(b, v.(retired).X) },
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			return retired{X: r.Uvarint()}, r.Err()
		})
	reg.Register(0x2e, probe{},
		func(b []byte, v any) []byte { return codec.AppendUvarint(b, v.(probe).X) },
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			return probe{X: r.Uvarint()}, r.Err()
		})
}
