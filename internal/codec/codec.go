// Package codec implements the framed binary wire format the live
// transport (package transport) speaks.
//
// Every message is one length-prefixed frame:
//
//	frame   := uvarint(len(body)) body
//	body    := uvarint(from) uvarint(tag) payload
//
// Tags identify message types. Protocol packages register their wire
// structs with fixed tags and hand-written varint encoders (see
// rkv.RegisterBinaryWire, dmutex.RegisterBinaryWire); that is the only
// codec. A type without a registration does not encode, and a tag without
// one — tag 0, which once framed a reflective fallback and is retired,
// included — does not decode: no peer-controlled byte reaches reflection.
//
// Encoders append into a reused scratch buffer (steady-state encodes
// allocate nothing); the path never touches reflection beyond one type
// lookup. Decoding is in place: a frame's payload becomes one string, and
// every string field a decoder reads is a substring of it — one
// allocation per frame, however many keys and values it carries. A
// decoded value therefore keeps its whole frame alive; whoever stores a
// field for longer than a message's life copies it (strings.Clone).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
)

// MaxFrame bounds a frame body; decoders reject anything larger so a
// corrupt or hostile length prefix cannot force a giant allocation.
const MaxFrame = 16 << 20

// ErrTruncated reports a payload that ended before its fields did.
var ErrTruncated = errors.New("codec: truncated payload")

// ErrUnregistered reports an Encode of a type no codec was registered for.
var ErrUnregistered = errors.New("codec: type has no registered codec")

// ErrUnknownTag reports a frame whose tag has no registered codec.
var ErrUnknownTag = errors.New("codec: unknown tag")

// EncodeFunc appends v's binary payload to buf and returns the extended
// slice. It must only be called with the type it was registered for.
type EncodeFunc func(buf []byte, v any) []byte

// DecodeFunc parses a binary payload produced by the matching EncodeFunc.
// Strings it reads through a Reader share data's memory.
type DecodeFunc func(data string) (any, error)

type entry struct {
	tag uint64
	typ reflect.Type
	enc EncodeFunc
	dec DecodeFunc
}

// Registry maps wire types to tags and their binary codecs. Lookups are
// safe for concurrent use with registration (registration normally happens
// once at startup, but tests re-register freely) and take no lock: they
// read an immutable table that Register replaces wholesale.
type Registry struct {
	mu  sync.Mutex // serializes Register
	tab atomic.Pointer[table]
}

// table is one immutable generation of a Registry's bindings.
type table struct {
	byTag  map[uint64]*entry
	byType map[reflect.Type]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.tab.Store(&table{byTag: make(map[uint64]*entry), byType: make(map[reflect.Type]*entry)})
	return r
}

// Register binds a tag to sample's concrete type with its codec pair.
// Tag 0 is retired and can never be bound. Re-registering the same
// (tag, type) pair is a no-op so package-level RegisterBinaryWire helpers
// stay idempotent; a conflicting registration panics — tags are wire
// protocol, and a silent collision would corrupt every peer.
func (r *Registry) Register(tag uint64, sample any, enc EncodeFunc, dec DecodeFunc) {
	if tag == 0 {
		panic("codec: tag 0 is retired")
	}
	typ := reflect.TypeOf(sample)
	if typ == nil {
		panic("codec: cannot register a nil sample")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.tab.Load()
	if prev, ok := cur.byTag[tag]; ok {
		if prev.typ == typ {
			return
		}
		panic(fmt.Sprintf("codec: tag %d already registered for %v, cannot rebind to %v", tag, prev.typ, typ))
	}
	if prev, ok := cur.byType[typ]; ok {
		panic(fmt.Sprintf("codec: type %v already registered with tag %d", typ, prev.tag))
	}
	e := &entry{tag: tag, typ: typ, enc: enc, dec: dec}
	next := &table{byTag: maps.Clone(cur.byTag), byType: maps.Clone(cur.byType)}
	next.byTag[tag] = e
	next.byType[typ] = e
	r.tab.Store(next)
}

func (r *Registry) lookupType(typ reflect.Type) *entry { return r.tab.Load().byType[typ] }

func (r *Registry) lookupTag(tag uint64) *entry { return r.tab.Load().byTag[tag] }

// Encoder writes frames to w. It is not safe for concurrent use — the
// transport owns one Encoder per connection, on that connection's writer
// goroutine.
type Encoder struct {
	w       io.Writer
	reg     *Registry
	scratch []byte
	head    [binary.MaxVarintLen64]byte
}

// NewEncoder returns an Encoder writing frames to w.
func NewEncoder(w io.Writer, reg *Registry) *Encoder {
	return &Encoder{w: w, reg: reg}
}

// Encode writes one frame carrying v from the given sender. It returns the
// number of bytes written. A type with no registered codec is an error
// (wrapping ErrUnregistered) and writes nothing.
func (e *Encoder) Encode(from uint64, v any) (int, error) {
	var ent *entry
	if e.reg != nil {
		ent = e.reg.lookupType(reflect.TypeOf(v))
	}
	if ent == nil {
		return 0, fmt.Errorf("%w: %T", ErrUnregistered, v)
	}
	body := e.scratch[:0]
	body = binary.AppendUvarint(body, from)
	body = binary.AppendUvarint(body, ent.tag)
	body = ent.enc(body, v)
	e.scratch = body[:0] // keep the grown capacity for the next frame
	if len(body) > MaxFrame {
		return 0, fmt.Errorf("codec: frame of %d bytes exceeds MaxFrame", len(body))
	}
	head := binary.PutUvarint(e.head[:], uint64(len(body)))
	if n, err := e.w.Write(e.head[:head]); err != nil {
		return n, err
	}
	n, err := e.w.Write(body)
	return head + n, err
}

// Decoder reads frames from r. Like Encoder it is single-goroutine: one
// Decoder per connection, on that connection's read loop.
type Decoder struct {
	br    io.ByteReader
	r     io.Reader
	reg   *Registry
	buf   []byte
	total uint64
}

// NewDecoder returns a Decoder reading frames from r, which must implement
// io.ByteReader as well (a *bufio.Reader does).
func NewDecoder(r interface {
	io.Reader
	io.ByteReader
}, reg *Registry) *Decoder {
	return &Decoder{br: r, r: r, reg: reg}
}

// BytesRead returns the cumulative wire bytes consumed by Decode calls.
func (d *Decoder) BytesRead() uint64 { return d.total }

// Decode reads the next frame and returns the sender and decoded value.
// It returns io.EOF (possibly wrapped) when the stream ends cleanly.
func (d *Decoder) Decode() (from uint64, v any, err error) {
	size, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, nil, err
	}
	if size > MaxFrame {
		return 0, nil, fmt.Errorf("codec: frame of %d bytes exceeds MaxFrame", size)
	}
	if uint64(cap(d.buf)) < size {
		d.buf = make([]byte, size)
	}
	body := d.buf[:size]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return 0, nil, err
	}
	d.total += uint64(size) + uint64(uvarintLen(size))
	return DecodeBody(body, d.reg)
}

// DecodeBody parses one frame body (everything after the length prefix).
// The payload is copied into one string once its tag is known, so a
// refused frame costs no copy and a decoded value never aliases body.
// It is exported so tests and tools can decode captured frames.
func DecodeBody(body []byte, reg *Registry) (from uint64, v any, err error) {
	from, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	tag, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return 0, nil, ErrTruncated
	}
	var ent *entry
	if reg != nil {
		ent = reg.lookupTag(tag)
	}
	if ent == nil {
		return 0, nil, fmt.Errorf("%w %d", ErrUnknownTag, tag)
	}
	v, err = ent.dec(string(body[n+m:]))
	if err != nil {
		return 0, nil, fmt.Errorf("codec: decode tag %d (%v): %w", tag, ent.typ, err)
	}
	return from, v, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ---- payload building helpers ----

// AppendUvarint appends v as a varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader parses a payload with a sticky error: after the first truncated
// field every subsequent read returns zero values, and Err reports
// ErrTruncated. Hand-written decoders read all fields, then check Err once
// — which also makes them safe on arbitrary fuzzed input.
type Reader struct {
	data string
	off  int
	fail bool
}

// NewReader returns a Reader over data.
func NewReader(data string) *Reader { return &Reader{data: data} }

// Uvarint reads one varint field, with encoding/binary's overflow rules.
func (r *Reader) Uvarint() uint64 {
	if r.fail {
		return 0
	}
	var v uint64
	var s uint
	for i := 0; r.off+i < len(r.data); i++ {
		if i == binary.MaxVarintLen64 {
			break // overflow
		}
		b := r.data[r.off+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break // overflow
			}
			r.off += i + 1
			return v | uint64(b)<<s
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	r.fail = true
	return 0
}

// String reads one length-prefixed string field: a substring of the
// payload, not a copy.
func (r *Reader) String() string {
	size := r.Uvarint()
	if r.fail || size > uint64(len(r.data)-r.off) {
		r.fail = true
		return ""
	}
	s := r.data[r.off : r.off+int(size)]
	r.off += int(size)
	return s
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int {
	if r.fail {
		return 0
	}
	return len(r.data) - r.off
}

// Fail poisons the reader: subsequent reads return zero values and Err
// reports ErrTruncated. Decoders call it to reject structurally invalid
// payloads — e.g. an element count exceeding the bytes left — through the
// same sticky-error path as truncation.
func (r *Reader) Fail() { r.fail = true }

// Err returns ErrTruncated if any read ran past the payload.
func (r *Reader) Err() error {
	if r.fail {
		return ErrTruncated
	}
	return nil
}
