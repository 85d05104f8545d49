package dmutex

import (
	"hquorum/internal/cluster"
	"hquorum/internal/codec"
)

// Fixed wire tags for the mutex protocol. These are wire format: once
// released they never change or get reused. The 0x20 block belongs to
// dmutex (rkv owns 0x10).
const (
	tagRequest    = 0x20
	tagGrant      = 0x21
	tagFailed     = 0x22
	tagInquire    = 0x23
	tagRelinquish = 0x24
	tagRelease    = 0x25
	tagBusy       = 0x26
)

// RegisterBinaryWire registers the hand-written varint codecs for the
// protocol's wire messages. Every message carries the sender's
// configuration epoch and exactly one ReqID, so the seven registrations
// share an encoder shape.
func RegisterBinaryWire(reg *codec.Registry) {
	register := func(tag uint64, sample any, wrap func(uint64, ReqID) any, fields func(any) (uint64, ReqID)) {
		reg.Register(tag, sample,
			func(b []byte, v any) []byte {
				ep, r := fields(v)
				b = codec.AppendUvarint(b, ep)
				b = codec.AppendUvarint(b, r.TS)
				return codec.AppendUvarint(b, uint64(r.Origin))
			},
			func(data []byte) (any, error) {
				rd := codec.NewReader(data)
				ep := rd.Uvarint()
				r := ReqID{TS: rd.Uvarint(), Origin: cluster.NodeID(rd.Uvarint())}
				return wrap(ep, r), rd.Err()
			})
	}
	register(tagRequest, msgRequest{},
		func(ep uint64, r ReqID) any { return msgRequest{Epoch: ep, ID: r} },
		func(v any) (uint64, ReqID) { m := v.(msgRequest); return m.Epoch, m.ID })
	register(tagGrant, msgGrant{},
		func(ep uint64, r ReqID) any { return msgGrant{Epoch: ep, ID: r} },
		func(v any) (uint64, ReqID) { m := v.(msgGrant); return m.Epoch, m.ID })
	register(tagFailed, msgFailed{},
		func(ep uint64, r ReqID) any { return msgFailed{Epoch: ep, ID: r} },
		func(v any) (uint64, ReqID) { m := v.(msgFailed); return m.Epoch, m.ID })
	register(tagInquire, msgInquire{},
		func(ep uint64, r ReqID) any { return msgInquire{Epoch: ep, ID: r} },
		func(v any) (uint64, ReqID) { m := v.(msgInquire); return m.Epoch, m.ID })
	register(tagRelinquish, msgRelinquish{},
		func(ep uint64, r ReqID) any { return msgRelinquish{Epoch: ep, ID: r} },
		func(v any) (uint64, ReqID) { m := v.(msgRelinquish); return m.Epoch, m.ID })
	register(tagRelease, msgRelease{},
		func(ep uint64, r ReqID) any { return msgRelease{Epoch: ep, ID: r} },
		func(v any) (uint64, ReqID) { m := v.(msgRelease); return m.Epoch, m.ID })
	register(tagBusy, msgBusy{},
		func(ep uint64, r ReqID) any { return msgBusy{Epoch: ep, ID: r} },
		func(v any) (uint64, ReqID) { m := v.(msgBusy); return m.Epoch, m.ID })
}

// WireSamples returns one well-formed instance of every dmutex wire
// message, for seeding fuzz corpora over the real registry (see
// internal/codec's seed-corpus test).
func WireSamples() []any {
	id := ReqID{TS: 42, Origin: 3}
	return []any{
		msgRequest{Epoch: 2, ID: id}, msgGrant{Epoch: 2, ID: id},
		msgFailed{Epoch: 3, ID: id}, msgInquire{Epoch: 2, ID: id},
		msgRelinquish{Epoch: 2, ID: id}, msgRelease{Epoch: 2, ID: id},
		msgBusy{Epoch: 2, ID: id},
	}
}
