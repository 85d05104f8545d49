package sut

import (
	"math/rand"
	"testing"
	"time"

	"hquorum/benchmark/internal/gen"
	"hquorum/internal/cluster"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
)

// fakeHandler counts what reaches it; with fast set it consumes every
// even message on the fast path.
type fakeHandler struct {
	delivered, fastSeen, timers []any
}

func (f *fakeHandler) Deliver(_ cluster.Env, _ cluster.NodeID, msg any) {
	f.delivered = append(f.delivered, msg)
}
func (f *fakeHandler) Timer(_ cluster.Env, token any) { f.timers = append(f.timers, token) }

type fastHandler struct{ fakeHandler }

func (f *fastHandler) FastDeliver(_ cluster.Env, _ cluster.NodeID, msg any) bool {
	if msg.(int)%2 == 0 {
		f.fastSeen = append(f.fastSeen, msg)
		return true
	}
	return false
}

type fakeEnv struct {
	sent []cluster.NodeID
	rec  *optrace.Rec
}

func (e *fakeEnv) ID() cluster.NodeID            { return 0 }
func (e *fakeEnv) Now() time.Duration            { return 0 }
func (e *fakeEnv) Send(to cluster.NodeID, _ any) { e.sent = append(e.sent, to) }
func (e *fakeEnv) After(time.Duration, any)      {}
func (e *fakeEnv) Rand() *rand.Rand              { return nil }
func (e *fakeEnv) TraceRec() *optrace.Rec        { return e.rec }

// deliver is what the transport does with a received message.
func deliver(h cluster.Handler, env cluster.Env, msg any) {
	if f, ok := h.(interface {
		FastDeliver(cluster.Env, cluster.NodeID, any) bool
	}); ok && f.FastDeliver(env, 1, msg) {
		return
	}
	h.Deliver(env, 1, msg)
}

func TestHandlerDecoratorForwardsEverythingOnce(t *testing.T) {
	d := NewDecor(Members + 1)
	inner := &fastHandler{}
	h := d.Handler(0, inner)
	env := &fakeEnv{}
	for i := 0; i < 10; i++ {
		deliver(h, env, i)
	}
	h.Timer(env, "tick")
	if len(inner.fastSeen) != 5 || len(inner.delivered) != 5 || len(inner.timers) != 1 {
		t.Fatalf("inner saw %d fast, %d delivered, %d timers; want 5, 5, 1", len(inner.fastSeen), len(inner.delivered), len(inner.timers))
	}
	for i, m := range inner.fastSeen {
		if m.(int) != 2*i {
			t.Errorf("fast path message %d is %v, want %d", i, m, 2*i)
		}
	}
	for i, m := range inner.delivered {
		if m.(int) != 2*i+1 {
			t.Errorf("delivered message %d is %v, want %d", i, m, 2*i+1)
		}
	}
	// A declined fast-path offer is not a call; 5 + 5 + 1 are.
	if r := d.Since(Mark{}); r.DeliverCalls != 11 {
		t.Errorf("decorator counted %d calls, want 11", r.DeliverCalls)
	}
}

func TestHandlerDecoratorWithoutFastPathDeclines(t *testing.T) {
	d := NewDecor(Members + 1)
	inner := &fakeHandler{}
	h := d.Handler(3, inner)
	for i := 0; i < 4; i++ {
		deliver(h, &fakeEnv{}, i)
	}
	if len(inner.delivered) != 4 {
		t.Fatalf("inner got %d deliveries, want 4", len(inner.delivered))
	}
	if tr := h.(optrace.Source).Tracer(); tr != nil {
		t.Error("a handler without a tracer reported one through the decorator")
	}
}

// sendingHandler sends to two members and one session on each delivery.
type sendingHandler struct{ fakeHandler }

func (s *sendingHandler) Deliver(env cluster.Env, _ cluster.NodeID, _ any) {
	env.Send(2, nil)
	env.Send(2, nil)
	env.Send(5, nil)
	env.Send(Members, nil)
	if optrace.From(env) == nil {
		panic("the decorated env lost the trace record")
	}
}

func TestEnvDecoratorCountsSessionSends(t *testing.T) {
	d := NewDecor(Members + 1)
	env := &fakeEnv{rec: optrace.New(1).Sample()}
	d.Handler(Members, &sendingHandler{}).Deliver(env, 0, nil) // a session: counted
	d.Handler(1, &sendingHandler{}).Deliver(env, 0, nil)       // a member: not counted
	if len(env.sent) != 8 {
		t.Fatalf("%d sends reached the env, want 8", len(env.sent))
	}
	r := d.Since(Mark{})
	if r.ShareMax != 2.0/3 || r.ShareMin != 0 {
		t.Errorf("shares max %v min %v, want 2/3 and 0", r.ShareMax, r.ShareMin)
	}
}

type fakeSession struct {
	ops    []rkv.Op
	leased map[string]bool
}

func (f *fakeSession) Submit(op rkv.Op, cb func(rkv.Result)) {
	f.ops = append(f.ops, op)
	cb(rkv.Result{Key: op.Key, Value: "v"})
}
func (f *fakeSession) LeasedRead(key string) bool { return f.leased[key] }

func TestSessionDecorator(t *testing.T) {
	d := NewDecor(Members + 1)
	inner := &fakeSession{leased: map[string]bool{"k1": true}}
	s := d.Session(inner)
	calls := 0
	cb := func(r rkv.Result) {
		calls++
		if r.Value != "v" {
			t.Errorf("callback got %q, want v", r.Value)
		}
	}
	id := TraceID(0, 0)
	s.Submit(toRKV(Op{Read: true, Key: "k1", TraceID: id}), cb)
	s.Submit(toRKV(Op{Read: true, Key: "k2"}), cb)
	s.Submit(toRKV(Op{Key: "k3", Value: gen.Value("k3", 0, SpanEvery)}), cb)
	s.Submit(toRKV(Op{Key: "k3", Value: gen.Value("k3", 0, SpanEvery+1)}), cb)
	if calls != 4 || len(inner.ops) != 4 {
		t.Fatalf("%d callbacks, %d inner submits; want 4 and 4", calls, len(inner.ops))
	}
	if inner.ops[0].Value != "" {
		t.Errorf("the store saw the trace ID %q in a read", inner.ops[0].Value)
	}
	spans := d.Log.Spans()
	if len(spans) != 2 || spans[0].ID != id || spans[1].ID != TraceID(0, SpanEvery) {
		t.Errorf("spans %+v, want one for the sampled read and one for the sampled write", spans)
	}
	if r := d.Since(Mark{}); r.SubmitCount != 4 {
		t.Errorf("submit histogram holds %d samples, want 4", r.SubmitCount)
	}
	lr := s.(interface{ LeasedRead(string) bool })
	if !lr.LeasedRead("k1") || lr.LeasedRead("k2") {
		t.Error("LeasedRead is not forwarded")
	}
}

func TestCaptureFramesRepeatsExactly(t *testing.T) {
	var ops []Op
	for i := 0; i < Batch; i++ {
		ops = append(ops, Op{Key: "k0001", Value: gen.Value("k0001", 0, uint64(i))})
	}
	for i := 0; i < Batch; i++ {
		ops = append(ops, Op{Read: true, Key: "k0001"})
	}
	a, err := CaptureFrames(ops)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureFrames(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("captured %d and %d frames", len(a), len(b))
	}
	ma, err := ProbeCodec(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := ProbeCodec(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"codec.bytes_per_msg", "codec.allocs_per_msg"} {
		if ma[name] != mb[name] || ma[name] <= 0 {
			t.Errorf("%s read %v and %v, want the same positive count", name, ma[name], mb[name])
		}
	}
}
