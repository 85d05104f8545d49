package rkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"unsafe"

	"hquorum/internal/codec"
)

// frameBody returns m's frame body (everything after the length prefix),
// the bytes a connection's decoder reads.
func frameBody(t testing.TB, reg *codec.Registry, m any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := codec.NewEncoder(&buf, reg).Encode(3, m); err != nil {
		t.Fatal(err)
	}
	_, n := binary.Uvarint(buf.Bytes())
	return buf.Bytes()[n:]
}

func eightItems(prefix string) []item {
	items := make([]item, 8)
	for i := range items {
		items[i] = item{Key: fmt.Sprintf("%s-key-%d", prefix, i), Ver: Version{Counter: uint64(i + 1), Writer: 2}, Val: fmt.Sprintf("%s-value-%d", prefix, i)}
	}
	return items
}

// addr is where a string's bytes live.
func addr(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// TestStoreOwnsDecodedFrames: a decoded batch's keys and values are
// substrings of one copy of its frame, and the store keeps copies of its
// own. A write batch and a pull reply are decoded from one buffer and
// applied the way their handlers apply them (the replica's fast path, the
// state transfer's merge and applyPut); overwriting the buffer
// then changes nothing the store reads back, and no stored key or value
// lies inside a decoded frame.
func TestStoreOwnsDecodedFrames(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 9, majority9())})
	if err != nil {
		t.Fatal(err)
	}
	sent := map[string][]item{"write": eightItems("write"), "pull": eightItems("pull")}
	msgs := []any{
		msgWriteBatch{Epoch: 1, Seq: 1, Items: sent["write"]},
		msgPullReply{Seq: 2, Items: sent["pull"]},
	}
	buf := make([]byte, 0, 1024)
	type frame struct {
		lo   uintptr // the decoded frame's first key
		size int
	}
	var frames []frame
	for _, m := range msgs {
		buf = append(buf[:0], frameBody(t, reg, m)...)
		_, v, err := codec.DecodeBody(buf, reg)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		var items []item
		switch d := v.(type) {
		case msgWriteBatch:
			items = d.Items
			if !n.FastDeliver(&fakeEnv{}, 3, d) {
				t.Fatal("write batch not served on the fast path")
			}
		case msgPullReply:
			items = d.Items
			xfer := transfer{mask: 1, shards: 1, merged: make(map[string]item)}
			xfer.merge(items)
			for _, it := range xfer.merged {
				n.applyPut(it.Key, it.Ver, it.Val)
			}
		}
		f := frame{lo: addr(items[0].Key), size: len(buf)}
		for _, it := range items {
			if addr(it.Key)-f.lo >= uintptr(f.size) || addr(it.Val)-f.lo >= uintptr(f.size) {
				t.Fatalf("%T: item %q was not decoded in place", m, it.Key)
			}
		}
		frames = append(frames, f)
		for i := range buf {
			buf[i] = 0xee
		}
	}
	for name, items := range sent {
		for _, w := range items {
			if val, ver := n.ValueKey(w.Key); val != w.Val || ver != w.Ver {
				t.Fatalf("%s: the store holds %q %v for %s, want %q %v", name, val, ver, w.Key, w.Val, w.Ver)
			}
		}
	}
	for i := 0; i < n.store.count(); i++ {
		n.store.eachInShard(i, func(key string, _ Version, val string) {
			for _, f := range frames {
				if addr(key)-f.lo < uintptr(f.size) || addr(val)-f.lo < uintptr(f.size) {
					t.Fatalf("the store keeps %s's key or value inside a decoded frame", key)
				}
			}
		})
	}
}

// TestBatchDecodeAllocs: decoding an 8-item batch costs the frame's one
// string, the item slice and the message's interface box — not one string
// per key and per value.
func TestBatchDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	reply := msgReadBatchReply{Epoch: 1, Seq: 2, Items: eightItems("read")}
	for i := range reply.Items {
		reply.Items[i].Key = "" // a read reply's keys are not on the wire
	}
	for _, m := range []any{msgWriteBatch{Epoch: 1, Seq: 1, Items: eightItems("write")}, reply} {
		body := frameBody(t, reg, m)
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := codec.DecodeBody(body, reg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("decoding an 8-item %T: %v allocations", m, got)
		if got > 3 {
			t.Errorf("decoding an 8-item %T costs %v allocations, want ≤ 3", m, got)
		}
	}
}

// TestReplicaReadBatchAllocs: a replica answers an 8-key read batch with
// one reply item slice and the reply's interface box.
func TestReplicaReadBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 9, majority9())})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, it := range eightItems("read") {
		n.store.apply(it.Key, it.Ver, it.Val)
		keys = append(keys, it.Key)
	}
	var msg any = msgReadBatch{Epoch: 1, Seq: 1, Keys: keys, Want: "\x55"}
	env := &fakeEnv{}
	got := testing.AllocsPerRun(100, func() {
		if !n.FastDeliver(env, 3, msg) {
			t.Fatal("read batch not served on the fast path")
		}
	})
	t.Logf("an 8-key read batch: %v allocations", got)
	if got > 3 {
		t.Errorf("an 8-key read batch costs the replica %v allocations, want ≤ 3", got)
	}
}

// TestPhase2PayloadAllocs: a round builds its phase-2 payload in one
// slice, sized for the batch.
func TestPhase2PayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 9, majority9())})
	if err != nil {
		t.Fatal(err)
	}
	op := n.getOp()
	for _, it := range eightItems("w") {
		op.subs = append(op.subs, subOp{kind: OpBlindWrite, key: it.Key, bestVer: it.Ver, bestVal: it.Val})
	}
	env := &fakeEnv{}
	got := testing.AllocsPerRun(100, func() {
		op.p2 = nil
		n.buildPhase2(env, op)
	})
	if got != 1 || len(op.p2) != 8 || cap(op.p2) != 8 {
		t.Errorf("an 8-write round's payload took %v allocations for %d items (cap %d), want 1 for 8", got, len(op.p2), cap(op.p2))
	}
}
