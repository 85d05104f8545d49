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
// 0x17-0x1e for configuration distribution and reconfiguration.
//
// Retired, never reused: 0x10, 0x11, 0x12 — the single-key read, version
// reply and write frames. The classic register is a batch of one on key
// "", and a retired tag decodes to the codec's unknown-tag error.
const (
	tagWriteAck     = 0x13
	tagReadBatch    = 0x14
	tagReadBatchRep = 0x15
	tagWriteBatch   = 0x16
	tagConfigPush   = 0x17
	tagConfigAck    = 0x18
	tagStaleEpoch   = 0x19
	tagConfigReq    = 0x1a
	tagSnapReq      = 0x1b
	tagSnapReply    = 0x1c
	tagReconfig     = 0x1d
	tagReconfigDone = 0x1e
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
		func(data []byte) (any, error) {
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
			return b
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgReadBatch{Epoch: r.Uvarint(), Seq: r.Uvarint()}
			if n, ok := batchLen(r); ok {
				m.Keys = make([]string, n)
				for i := range m.Keys {
					m.Keys[i] = r.String()
				}
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
			b = codec.AppendUvarint(b, uint64(len(m.Vers)))
			for i, ver := range m.Vers {
				b = codec.AppendUvarint(b, ver.Counter)
				b = codec.AppendUvarint(b, uint64(ver.Writer))
				b = codec.AppendString(b, m.Vals[i])
			}
			return b
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgReadBatchReply{Epoch: r.Uvarint(), Seq: r.Uvarint(), Unsynced: r.Uvarint() != 0}
			if n, ok := batchLen(r); ok {
				m.Vers = make([]Version, n)
				m.Vals = make([]string, n)
				for i := range m.Vers {
					m.Vers[i].Counter = r.Uvarint()
					m.Vers[i].Writer = cluster.NodeID(r.Uvarint())
					m.Vals[i] = r.String()
				}
			}
			return m, r.Err()
		})
	reg.Register(tagWriteBatch, msgWriteBatch{},
		func(b []byte, v any) []byte {
			m := v.(msgWriteBatch)
			b = codec.AppendUvarint(b, m.Epoch)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, uint64(len(m.Keys)))
			for i, k := range m.Keys {
				b = codec.AppendString(b, k)
				b = codec.AppendUvarint(b, m.Vers[i].Counter)
				b = codec.AppendUvarint(b, uint64(m.Vers[i].Writer))
				b = codec.AppendString(b, m.Vals[i])
			}
			return b
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgWriteBatch{Epoch: r.Uvarint(), Seq: r.Uvarint()}
			if n, ok := batchLen(r); ok {
				m.Keys = make([]string, n)
				m.Vers = make([]Version, n)
				m.Vals = make([]string, n)
				for i := range m.Keys {
					m.Keys[i] = r.String()
					m.Vers[i].Counter = r.Uvarint()
					m.Vers[i].Writer = cluster.NodeID(r.Uvarint())
					m.Vals[i] = r.String()
				}
			}
			return m, r.Err()
		})
	registerReconfigWire(reg)
	registerTuneWire(reg)
	registerLeaseWire(reg)
}

// registerReconfigWire registers the configuration-distribution and
// reconfiguration messages (tags 0x17-0x1e). Configs travel as opaque
// byte strings; their own decoder (epoch.DecodeConfig) carries the
// hostile-input guards, so a frame here only needs string framing.
func registerReconfigWire(reg *codec.Registry) {
	reg.Register(tagConfigPush, msgConfigPush{},
		func(b []byte, v any) []byte {
			m := v.(msgConfigPush)
			b = codec.AppendUvarint(b, m.Seq)
			return codec.AppendString(b, string(m.Cfg))
		},
		func(data []byte) (any, error) {
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
		func(data []byte) (any, error) {
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
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgStaleEpoch{Seq: r.Uvarint(), Cfg: []byte(r.String())}
			return m, r.Err()
		})
	reg.Register(tagConfigReq, msgConfigReq{},
		func(b []byte, v any) []byte {
			return codec.AppendUvarint(b, v.(msgConfigReq).Epoch)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgConfigReq{Epoch: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagSnapReq, msgSnapReq{},
		func(b []byte, v any) []byte {
			m := v.(msgSnapReq)
			b = codec.AppendUvarint(b, m.Epoch)
			return codec.AppendUvarint(b, m.Seq)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgSnapReq{Epoch: r.Uvarint(), Seq: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagSnapReply, msgSnapReply{},
		func(b []byte, v any) []byte {
			m := v.(msgSnapReply)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendUvarint(b, uint64(len(m.Keys)))
			for i, k := range m.Keys {
				b = codec.AppendString(b, k)
				b = codec.AppendUvarint(b, m.Vers[i].Counter)
				b = codec.AppendUvarint(b, uint64(m.Vers[i].Writer))
				b = codec.AppendString(b, m.Vals[i])
			}
			return b
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgSnapReply{Seq: r.Uvarint()}
			if n, ok := batchLen(r); ok {
				m.Keys = make([]string, n)
				m.Vers = make([]Version, n)
				m.Vals = make([]string, n)
				for i := range m.Keys {
					m.Keys[i] = r.String()
					m.Vers[i].Counter = r.Uvarint()
					m.Vers[i].Writer = cluster.NodeID(r.Uvarint())
					m.Vals[i] = r.String()
				}
			}
			return m, r.Err()
		})
	reg.Register(tagReconfig, msgReconfig{},
		func(b []byte, v any) []byte {
			m := v.(msgReconfig)
			b = codec.AppendUvarint(b, m.Seq)
			return codec.AppendString(b, string(m.Target))
		},
		func(data []byte) (any, error) {
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
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := msgReconfigDone{Seq: r.Uvarint(), Epoch: r.Uvarint(), Err: r.String()}
			return m, r.Err()
		})
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

// WireSamples returns one well-formed instance of every rkv wire message,
// for seeding fuzz corpora over the real registry (see internal/codec's
// seed-corpus test).
func WireSamples() []any {
	sampleOld := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 9)}
	sampleNew := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}
	joint := epoch.Config{Epoch: 2, Cur: sampleNew, Old: &sampleOld}
	return []any{
		msgWriteAck{Epoch: 1, Seq: 8},
		msgReadBatch{Epoch: 2, Seq: 9, Keys: []string{"", "k1", "k2"}},
		msgReadBatchReply{
			Epoch:    2,
			Seq:      9,
			Unsynced: true,
			Vers:     []Version{{Counter: 1, Writer: 0}, {}, {Counter: 5, Writer: 3}},
			Vals:     []string{"a", "", "c"},
		},
		msgWriteBatch{
			Epoch: 2,
			Seq:   10,
			Keys:  []string{"k1", "k2"},
			Vers:  []Version{{Counter: 6, Writer: 1}, {Counter: 7, Writer: 2}},
			Vals:  []string{"x", "y"},
		},
		msgConfigPush{Seq: 11, Cfg: joint.Encode(nil)},
		msgConfigAck{Seq: 11, Epoch: 2, Fp: joint.Fingerprint()},
		msgStaleEpoch{Seq: 12, Cfg: joint.Encode(nil)},
		msgConfigReq{Epoch: 2},
		msgSnapReq{Epoch: 2, Seq: 13},
		msgSnapReply{
			Seq:  13,
			Keys: []string{"", "k1"},
			Vers: []Version{{Counter: 2, Writer: 4}, {Counter: 9, Writer: 0}},
			Vals: []string{"r", "s"},
		},
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
		msgLeasePull{Epoch: 3, Seq: 24, Mask: 0b1001, Shards: 16},
		msgLeasePullReply{
			Seq:  24,
			Keys: []string{"a", "b"},
			Vers: []Version{{Counter: 5, Writer: 1}, {Counter: 2, Writer: 6}},
			Vals: []string{"x", "y"},
		},
		msgLeaseDrop{Seq: 25, Mask: 0b1011},
	}
}
