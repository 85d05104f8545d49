package sut

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/benchmark/internal/gen"
	"hquorum/benchmark/internal/span"
	"hquorum/internal/cluster"
	"hquorum/internal/gateway"
	"hquorum/internal/histo"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
)

// SpanEvery is the benchmark tracer's sampling: one operation in this
// many records spans. Histograms and counters see every operation.
const SpanEvery = 64

// TraceID returns the span ID of operation i of a driver, or "" when
// the operation is not sampled.
func TraceID(driver int, i uint64) string {
	if i%SpanEvery != 0 {
		return ""
	}
	return strconv.Itoa(driver) + "|" + strconv.FormatUint(i, 10)
}

// Decor measures the layers from outside on a traced run: it wraps the
// interfaces the product already accepts (cluster.Handler and
// transport.FastDeliverer around each node, cluster.Env around the env
// handed to session nodes, gateway.Session around each session) and
// forwards every call unchanged.
type Decor struct {
	Log *span.Log

	// viaGateway is set at boot when sessions sit behind a gateway, so
	// session.submit spans name the right parent.
	viaGateway bool

	nodes  []nodeBusy
	sendTo [Members]atomic.Uint64

	mu     sync.Mutex
	submit *histo.Histogram
}

// nodeBusy accumulates the time one node's handler spent in Deliver,
// FastDeliver and Timer, in total and per Go message type. Messages are
// opaque from outside, so the aggregates carry no operation ID.
type nodeBusy struct {
	calls atomic.Uint64
	ns    atomic.Int64

	mu     sync.Mutex
	byType map[reflect.Type]*typeBusy
}

type typeBusy struct {
	calls uint64
	ns    int64
}

// NewDecor returns decorators for a cluster of the given universe.
func NewDecor(universe int) *Decor {
	return &Decor{Log: span.NewLog(), nodes: make([]nodeBusy, universe), submit: histo.New()}
}

func (d *Decor) span(name, parent, id string, start int64) {
	d.Log.Add(span.Span{Name: name, ID: id, Parent: parent, StartNs: start, EndNs: d.Log.Now()})
}

func (d *Decor) note(node int, key any, start time.Time) {
	dt := int64(time.Since(start))
	nb := &d.nodes[node]
	nb.calls.Add(1)
	nb.ns.Add(dt)
	typ := reflect.TypeOf(key)
	nb.mu.Lock()
	if nb.byType == nil {
		nb.byType = map[reflect.Type]*typeBusy{}
	}
	tb := nb.byType[typ]
	if tb == nil {
		tb = &typeBusy{}
		nb.byType[typ] = tb
	}
	tb.calls++
	tb.ns += dt
	nb.mu.Unlock()
}

// Handler wraps node i's handler. The wrapper always offers the fast
// path and the tracer hook; when the inner handler has neither, it
// declines the message (which routes it to Deliver) and reports no
// tracer, exactly as the bare handler would.
func (d *Decor) Handler(i int, inner cluster.Handler) cluster.Handler {
	h := &handlerDec{d: d, id: i, inner: inner}
	h.fast, _ = inner.(transport.FastDeliverer)
	h.src, _ = inner.(optrace.Source)
	return h
}

type handlerDec struct {
	d     *Decor
	id    int
	inner cluster.Handler
	fast  transport.FastDeliverer
	src   optrace.Source
}

var (
	_ transport.FastDeliverer = (*handlerDec)(nil)
	_ optrace.Source          = (*handlerDec)(nil)
)

func (h *handlerDec) env(env cluster.Env) cluster.Env {
	if h.id < Members {
		return env
	}
	return &envDec{Env: env, d: h.d}
}

func (h *handlerDec) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	t0 := time.Now()
	h.inner.Deliver(h.env(env), from, msg)
	h.d.note(h.id, msg, t0)
}

func (h *handlerDec) FastDeliver(env cluster.Env, from cluster.NodeID, msg any) bool {
	if h.fast == nil {
		return false
	}
	t0 := time.Now()
	ok := h.fast.FastDeliver(h.env(env), from, msg)
	if ok {
		h.d.note(h.id, msg, t0)
	}
	return ok
}

func (h *handlerDec) Timer(env cluster.Env, token any) {
	t0 := time.Now()
	h.inner.Timer(h.env(env), token)
	h.d.note(h.id, token, t0)
}

func (h *handlerDec) Tracer() *optrace.Tracer {
	if h.src == nil {
		return nil
	}
	return h.src.Tracer()
}

// envDec counts the messages a session sends to each member: the
// paper's load, realized. It forwards the op-trace record so the
// product's own stages keep working underneath.
type envDec struct {
	cluster.Env
	d *Decor
}

func (e *envDec) Send(to cluster.NodeID, msg any) {
	if to >= 0 && int(to) < Members {
		e.d.sendTo[to].Add(1)
	}
	e.Env.Send(to, msg)
}

func (e *envDec) TraceRec() *optrace.Rec { return optrace.From(e.Env) }

// Session wraps a session: every Submit-to-callback interval goes into
// a histogram, and sampled operations record a session.submit span.
func (d *Decor) Session(inner gateway.Session) gateway.Session {
	s := &sessionDec{d: d, inner: inner}
	s.router, _ = inner.(gateway.LeaseRouter)
	return s
}

type sessionDec struct {
	d      *Decor
	inner  gateway.Session
	router gateway.LeaseRouter
}

var _ gateway.LeaseRouter = (*sessionDec)(nil)

func (s *sessionDec) LeasedRead(key string) bool {
	return s.router != nil && s.router.LeasedRead(key)
}

func (s *sessionDec) Submit(op rkv.Op, cb func(rkv.Result)) {
	id, parent := "", "client.op"
	if op.Kind == rkv.OpRead {
		id, op.Value = op.Value, ""
	} else if _, drv, i, err := gen.Parse(op.Value); err == nil {
		id = TraceID(drv, i)
	}
	if s.d.viaGateway {
		parent = "gateway.do"
	}
	t0 := s.d.Log.Now()
	s.inner.Submit(op, func(r rkv.Result) {
		end := s.d.Log.Now()
		s.d.mu.Lock()
		s.d.submit.Record(end - t0)
		s.d.mu.Unlock()
		if id != "" {
			s.d.Log.Add(span.Span{Name: "session.submit", ID: id, Parent: parent, StartNs: t0, EndNs: end})
		}
		cb(r)
	})
}

// LayerReport is what the decorators saw between two Mark calls.
type LayerReport struct {
	ReplicaBusyNs, CoordBusyNs int64
	DeliverCalls               uint64
	// ShareMax and ShareMin are the busiest and idlest member's share of
	// the messages sessions sent to members (ideal 1/16 each).
	ShareMax, ShareMin float64
	SubmitP50Us        float64
	SubmitP99Us        float64
	SubmitCount        uint64
}

// Mark is a snapshot of the decorators' cumulative counters.
type Mark struct {
	replicaNs, coordNs int64
	calls              uint64
	sendTo             [Members]uint64
}

// Mark snapshots the cumulative counters.
func (d *Decor) Mark() Mark {
	var m Mark
	for i := range d.nodes {
		ns := d.nodes[i].ns.Load()
		if i < Members {
			m.replicaNs += ns
		} else {
			m.coordNs += ns
		}
		m.calls += d.nodes[i].calls.Load()
	}
	for i := range d.sendTo {
		m.sendTo[i] = d.sendTo[i].Load()
	}
	return m
}

// ResetSubmit empties the submit-to-callback histogram (call it when
// the warm-up ends).
func (d *Decor) ResetSubmit() {
	d.mu.Lock()
	d.submit.Reset()
	d.mu.Unlock()
}

// Since reports what happened after the mark was taken.
func (d *Decor) Since(m Mark) LayerReport {
	now := d.Mark()
	r := LayerReport{
		ReplicaBusyNs: now.replicaNs - m.replicaNs,
		CoordBusyNs:   now.coordNs - m.coordNs,
		DeliverCalls:  now.calls - m.calls,
	}
	var total, max uint64
	min := ^uint64(0)
	for i := range now.sendTo {
		n := now.sendTo[i] - m.sendTo[i]
		total += n
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if total > 0 {
		r.ShareMax = float64(max) / float64(total)
		r.ShareMin = float64(min) / float64(total)
	}
	d.mu.Lock()
	r.SubmitP50Us = float64(d.submit.Quantile(0.5)) / 1e3
	r.SubmitP99Us = float64(d.submit.Quantile(0.99)) / 1e3
	r.SubmitCount = d.submit.Count()
	d.mu.Unlock()
	return r
}

// DeliverAggregate is one node's busy time for one Go message type.
type DeliverAggregate struct {
	Node  int    `json:"node"`
	Type  string `json:"type"`
	Calls uint64 `json:"calls"`
	Ns    int64  `json:"busy_ns"`
}

// DeliverAggregates lists the per-node, per-message-type busy totals,
// for the trace file.
func (d *Decor) DeliverAggregates() []DeliverAggregate {
	var out []DeliverAggregate
	for i := range d.nodes {
		nb := &d.nodes[i]
		nb.mu.Lock()
		for typ, tb := range nb.byType {
			out = append(out, DeliverAggregate{Node: i, Type: fmt.Sprint(typ), Calls: tb.calls, Ns: tb.ns})
		}
		nb.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Type < out[j].Type
	})
	return out
}
