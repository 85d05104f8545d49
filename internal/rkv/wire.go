package rkv

import (
	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/epoch"
	"hquorum/internal/tuner"
)

// Fixed wire tags for the register protocol. These are wire format: once
// released they never change or get reused. The 0x10 block belongs to rkv
// (dmutex owns 0x20). The epoch-versioned config refactor revised the
// 0x13-0x16 bodies in place (a leading epoch varint) and claimed
// 0x17-0x1e for configuration distribution and reconfiguration; 0x14's
// body has since gained a trailing want-value bit string (msgReadBatch).
// The keyed batches (0x15, 0x16, 0x36) carry one []item: on the
// wire a count, then per item its version and value (0x15, whose keys are
// the request's) or its key, version and value. Decoders read in place: a
// decoded key or value is a substring of its frame, so the replica store
// clones what it keeps (shardedMap.applyLogged).
//
// Retired, never reused: 0x10, 0x11, 0x12 — the single-key read, version
// reply and write frames (the classic register is a batch of one on key
// ""); 0x1b, 0x1c — the reconfiguration's snapshot request and reply,
// whose job the state transfer's pull (0x35/0x36) does. A retired tag
// decodes to the codec's unknown-tag error.
const (
	tagWriteAck     = 0x13
	tagReadBatch    = 0x14
	tagReadBatchRep = 0x15
	tagWriteBatch   = 0x16
	tagConfigPush   = 0x17
	tagConfigAck    = 0x18
	tagStaleEpoch   = 0x19
	tagConfigReq    = 0x1a
	tagReconfig     = 0x1d
	tagReconfigDone = 0x1e
	// In the 0x30 overflow block, beside the lease tags (lease.go).
	tagPull      = 0x35
	tagPullReply = 0x36
)

// RegisterBinaryWire registers the hand-written varint codecs for every
// wire message of the protocol.
func RegisterBinaryWire(reg *codec.Registry) {
	reg.Register(tagWriteAck, msgWriteAck{},
		func(b []byte, v any) []byte {
			m := v.(msgWriteAck)
			b = codec.AppendUvarint(b, m.Epoch)
			return codec.AppendUvarint(b, m.Seq)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgWriteAck{Epoch: r.Uvarint(), Seq: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagReadBatch, msgReadBatch{},
		func(b []byte, v any) []byte {
			m := v.(msgReadBatch)
			b = codec.AppendUvarint(b, m.Epoch)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, uint64(len(m.Keys)))
			for _, k := range m.Keys {
				b = codec.AppendString(b, k)
			}
			return codec.AppendString(b, m.Want)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgReadBatch{Epoch: r.Uvarint(), Seq: r.Uvarint()}
			if n, ok := batchLen(r); ok {
				m.Keys = make([]string, n)
				for i := range m.Keys {
					m.Keys[i] = r.String()
				}
			}
			m.Want = r.String()
			if !wantFits(m.Want, len(m.Keys)) {
				r.Fail()
			}
			return m, r.Err()
		})
	reg.Register(tagReadBatchRep, msgReadBatchReply{},
		func(b []byte, v any) []byte {
			m := v.(msgReadBatchReply)
			b = codec.AppendUvarint(b, m.Epoch)
			b = codec.AppendUvarint(b, m.Seq)
			unsynced := uint64(0)
			if m.Unsynced {
				unsynced = 1
			}
			b = codec.AppendUvarint(b, unsynced)
			b = codec.AppendUvarint(b, uint64(len(m.Items)))
			for _, it := range m.Items {
				b = appendVersion(b, it.Ver)
				b = codec.AppendString(b, it.Val)
			}
			return b
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgReadBatchReply{Epoch: r.Uvarint(), Seq: r.Uvarint(), Unsynced: r.Uvarint() != 0}
			if n, ok := batchLen(r); ok {
				m.Items = make([]item, n)
				for i := range m.Items {
					m.Items[i].Ver = readVersion(r)
					m.Items[i].Val = r.String()
				}
			}
			return m, r.Err()
		})
	reg.Register(tagWriteBatch, msgWriteBatch{},
		func(b []byte, v any) []byte {
			m := v.(msgWriteBatch)
			b = codec.AppendUvarint(b, m.Epoch)
			b = codec.AppendUvarint(b, m.Seq)
			return appendItems(b, m.Items)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgWriteBatch{Epoch: r.Uvarint(), Seq: r.Uvarint(), Items: readItems(r)}
			return m, r.Err()
		})
	reg.Register(tagPull, msgPull{},
		func(b []byte, v any) []byte {
			m := v.(msgPull)
			b = codec.AppendUvarint(b, m.Epoch)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, m.Mask)
			return codec.AppendUvarint(b, uint64(m.Shards))
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgPull{Epoch: r.Uvarint(), Seq: r.Uvarint(), Mask: r.Uvarint(), Shards: int(r.Uvarint())}
			return m, r.Err()
		})
	reg.Register(tagPullReply, msgPullReply{},
		func(b []byte, v any) []byte {
			m := v.(msgPullReply)
			b = codec.AppendUvarint(b, m.Seq)
			return appendItems(b, m.Items)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgPullReply{Seq: r.Uvarint(), Items: readItems(r)}
			return m, r.Err()
		})
	registerReconfigWire(reg)
	registerTuneWire(reg)
	registerLeaseWire(reg)
}

// registerReconfigWire registers the configuration-distribution and
// reconfiguration messages (tags 0x17-0x1a, 0x1d, 0x1e). Configs travel as
// opaque byte strings; their own decoder (epoch.DecodeConfig) carries the
// hostile-input guards, so a frame here only needs string framing.
func registerReconfigWire(reg *codec.Registry) {
	reg.Register(tagConfigPush, msgConfigPush{},
		func(b []byte, v any) []byte {
			m := v.(msgConfigPush)
			b = codec.AppendUvarint(b, m.Seq)
			return codec.AppendString(b, string(m.Cfg))
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgConfigPush{Seq: r.Uvarint(), Cfg: []byte(r.String())}
			return m, r.Err()
		})
	reg.Register(tagConfigAck, msgConfigAck{},
		func(b []byte, v any) []byte {
			m := v.(msgConfigAck)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, m.Epoch)
			return codec.AppendUvarint(b, m.Fp)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgConfigAck{Seq: r.Uvarint(), Epoch: r.Uvarint(), Fp: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagStaleEpoch, msgStaleEpoch{},
		func(b []byte, v any) []byte {
			m := v.(msgStaleEpoch)
			b = codec.AppendUvarint(b, m.Seq)
			return codec.AppendString(b, string(m.Cfg))
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgStaleEpoch{Seq: r.Uvarint(), Cfg: []byte(r.String())}
			return m, r.Err()
		})
	reg.Register(tagConfigReq, msgConfigReq{},
		func(b []byte, v any) []byte {
			return codec.AppendUvarint(b, v.(msgConfigReq).Epoch)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgConfigReq{Epoch: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagReconfig, msgReconfig{},
		func(b []byte, v any) []byte {
			m := v.(msgReconfig)
			b = codec.AppendUvarint(b, m.Seq)
			return codec.AppendString(b, string(m.Target))
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgReconfig{Seq: r.Uvarint(), Target: []byte(r.String())}
			return m, r.Err()
		})
	reg.Register(tagReconfigDone, msgReconfigDone{},
		func(b []byte, v any) []byte {
			m := v.(msgReconfigDone)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, m.Epoch)
			return codec.AppendString(b, m.Err)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgReconfigDone{Seq: r.Uvarint(), Epoch: r.Uvarint(), Err: r.String()}
			return m, r.Err()
		})
}

// appendVersion and readVersion are a version's wire form: counter, then
// writer.
func appendVersion(b []byte, v Version) []byte {
	b = codec.AppendUvarint(b, v.Counter)
	return codec.AppendUvarint(b, uint64(v.Writer))
}

func readVersion(r *codec.Reader) Version {
	return Version{Counter: r.Uvarint(), Writer: cluster.NodeID(r.Uvarint())}
}

// appendItems and readItems are a keyed batch's wire form (write batches
// and pull replies): a count, then key, version and value
// per item. Decoded keys and values are substrings of the frame.
func appendItems(b []byte, items []item) []byte {
	b = codec.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = codec.AppendString(b, it.Key)
		b = appendVersion(b, it.Ver)
		b = codec.AppendString(b, it.Val)
	}
	return b
}

func readItems(r *codec.Reader) []item {
	n, ok := batchLen(r)
	if !ok {
		return nil
	}
	items := make([]item, n)
	for i := range items {
		items[i].Key = r.String()
		items[i].Ver = readVersion(r)
		items[i].Val = r.String()
	}
	return items
}

// batchLen reads a batch element count and sanity-checks it against the
// remaining payload: every element costs at least one byte on the wire, so
// a count exceeding the bytes left is a hostile frame — reject it before
// allocating, rather than make()ing gigabytes on a 10-byte input.
func batchLen(r *codec.Reader) (int, bool) {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail()
		return 0, false
	}
	return int(n), n > 0
}

// wantFits reports whether a packed want-value string holds exactly n
// flags: ceil(n/8) bytes, with the last byte's bits past n clear.
func wantFits(want string, n int) bool {
	if len(want) != (n+7)/8 {
		return false
	}
	return n&7 == 0 || want[len(want)-1]>>(n&7) == 0
}

// wantsValue reports whether flag i of a packed want-value string is set;
// a flag past the string's end is clear.
func wantsValue(want string, i int) bool {
	return i>>3 < len(want) && want[i>>3]>>(i&7)&1 != 0
}

// WireSamples returns one well-formed instance of every rkv wire message,
// for seeding fuzz corpora over the real registry (see internal/codec's
// seed-corpus test).
func WireSamples() []any {
	sampleOld := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	sampleNew := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	joint := epoch.Config{Epoch: 2, Cur: sampleNew, Old: &sampleOld}
	return []any{
		msgWriteAck{Epoch: 1, Seq: 8},
		msgReadBatch{Epoch: 2, Seq: 9, Keys: []string{"", "k1", "k2"}, Want: "\x05"},
		msgReadBatchReply{
			Epoch:    2,
			Seq:      9,
			Unsynced: true,
			Items:    []item{{Ver: Version{Counter: 1, Writer: 0}, Val: "a"}, {}, {Ver: Version{Counter: 5, Writer: 3}, Val: "c"}},
		},
		msgWriteBatch{
			Epoch: 2,
			Seq:   10,
			Items: []item{{"k1", Version{Counter: 6, Writer: 1}, "x"}, {"k2", Version{Counter: 7, Writer: 2}, "y"}},
		},
		msgConfigPush{Seq: 11, Cfg: joint.Encode(nil)},
		msgConfigAck{Seq: 11, Epoch: 2, Fp: joint.Fingerprint()},
		msgStaleEpoch{Seq: 12, Cfg: joint.Encode(nil)},
		msgConfigReq{Epoch: 2},
		msgReconfig{Seq: 1, Target: sampleNew.Encode(nil)},
		msgReconfigDone{Seq: 1, Epoch: 3, Err: ""},
		msgWorkloadReq{Seq: 14},
		msgWorkloadReply{
			Seq: 14,
			Wl:  tuner.Workload{SpanUs: 2_000_000, Reads: 95, Writes: 5, LatSumUs: 12345}.Encode(nil),
			Cfg: joint.Encode(nil),
		},
		msgLeaseGrant{Epoch: 3, Seq: 21, Mask: 0b1011, Shards: 16, TTLus: 2_000_000},
		msgLeaseRenew{Epoch: 3, Seq: 22, Mask: 0b1011, Shards: 16, TTLus: 2_000_000},
		msgLeaseInval{Seq: 23, Mask: 0b0010},
		msgLeaseAck{Seq: 23, Kind: 2, OK: true},
		msgPull{Epoch: 3, Seq: 24, Mask: 0b1001, Shards: 16},
		msgPullReply{
			Seq:   24,
			Items: []item{{"a", Version{Counter: 5, Writer: 1}, "x"}, {"b", Version{Counter: 2, Writer: 6}, "y"}},
		},
		msgLeaseDrop{Seq: 25, Mask: 0b1011},
	}
}
