package dmutex

import (
	"hquorum/internal/cluster"
	"hquorum/internal/codec"
)

// Fixed wire tags for the mutex protocol. These are wire format: once
// released they never change or get reused. The 0x20 block belongs to
// dmutex (rkv owns 0x10).
//
// Retired: 0x20-0x26 carried the same seven messages led by a
// configuration epoch, from the lock's epoch-versioned mode. That mode is
// gone (the lock has one quorum source, Config.System), so those tags are
// unbound and a frame on one is refused as an unknown tag.
const (
	tagRequest    = 0x27
	tagGrant      = 0x28
	tagFailed     = 0x29
	tagInquire    = 0x2a
	tagRelinquish = 0x2b
	tagRelease    = 0x2c
	tagBusy       = 0x2d
)

// RegisterBinaryWire registers the hand-written varint codecs for the
// protocol's wire messages. Every message carries exactly one ReqID, so
// the seven registrations share an encoder shape.
func RegisterBinaryWire(reg *codec.Registry) {
	register := func(tag uint64, sample any, wrap func(ReqID) any, field func(any) ReqID) {
		reg.Register(tag, sample,
			func(b []byte, v any) []byte {
				r := field(v)
				b = codec.AppendUvarint(b, r.TS)
				return codec.AppendUvarint(b, uint64(r.Origin))
			},
			func(data []byte) (any, error) {
				rd := codec.NewReader(data)
				r := ReqID{TS: rd.Uvarint(), Origin: cluster.NodeID(rd.Uvarint())}
				return wrap(r), rd.Err()
			})
	}
	register(tagRequest, msgRequest{},
		func(r ReqID) any { return msgRequest{ID: r} },
		func(v any) ReqID { return v.(msgRequest).ID })
	register(tagGrant, msgGrant{},
		func(r ReqID) any { return msgGrant{ID: r} },
		func(v any) ReqID { return v.(msgGrant).ID })
	register(tagFailed, msgFailed{},
		func(r ReqID) any { return msgFailed{ID: r} },
		func(v any) ReqID { return v.(msgFailed).ID })
	register(tagInquire, msgInquire{},
		func(r ReqID) any { return msgInquire{ID: r} },
		func(v any) ReqID { return v.(msgInquire).ID })
	register(tagRelinquish, msgRelinquish{},
		func(r ReqID) any { return msgRelinquish{ID: r} },
		func(v any) ReqID { return v.(msgRelinquish).ID })
	register(tagRelease, msgRelease{},
		func(r ReqID) any { return msgRelease{ID: r} },
		func(v any) ReqID { return v.(msgRelease).ID })
	register(tagBusy, msgBusy{},
		func(r ReqID) any { return msgBusy{ID: r} },
		func(v any) ReqID { return v.(msgBusy).ID })
}

// WireSamples returns one well-formed instance of every dmutex wire
// message, for seeding fuzz corpora over the real registry (see
// internal/codec's seed-corpus test).
func WireSamples() []any {
	id := ReqID{TS: 42, Origin: 3}
	return []any{
		msgRequest{ID: id}, msgGrant{ID: id}, msgFailed{ID: id},
		msgInquire{ID: id}, msgRelinquish{ID: id}, msgRelease{ID: id},
		msgBusy{ID: id},
	}
}
