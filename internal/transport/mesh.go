package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hquorum/internal/cluster"
)

// Mesh wires a set of handlers into a fully connected loopback-TCP
// cluster: one Node per handler, ephemeral ports, everyone's address book
// populated. It exists so benchmarks and tests don't repeat the
// listen/connect/start dance.
type Mesh struct {
	nodes []*Node
}

// NewMesh builds (but does not start) a mesh of len(handlers) nodes on
// loopback. opts apply to every node; WithSeed is offset per node so rng
// streams stay distinct.
func NewMesh(handlers []cluster.Handler, opts ...Option) (*Mesh, error) {
	m := &Mesh{}
	book := map[cluster.NodeID]string{}
	for i, h := range handlers {
		id := cluster.NodeID(i)
		node, err := NewNode(id, h, "127.0.0.1:0", opts...)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: mesh node %d: %w", i, err)
		}
		m.nodes = append(m.nodes, node)
		book[id] = node.Addr()
	}
	for _, node := range m.nodes {
		node.Connect(book)
	}
	return m, nil
}

// Start launches every node's loops.
func (m *Mesh) Start() {
	for _, node := range m.nodes {
		node.Start()
	}
}

// Node returns the i-th transport node.
func (m *Mesh) Node(i int) *Node { return m.nodes[i] }

// Len returns the mesh size.
func (m *Mesh) Len() int { return len(m.nodes) }

// Stats sums every node's transport counters.
func (m *Mesh) Stats() Stats {
	var total Stats
	for _, node := range m.nodes {
		s := node.Stats()
		total.Sent += s.Sent
		total.Received += s.Received
		total.Dropped += s.Dropped
		total.FastPath += s.FastPath
		total.BytesOut += s.BytesOut
		total.BytesIn += s.BytesIn
		total.Flushes += s.Flushes
		total.Holds += s.Holds
		total.HoldLateNs += s.HoldLateNs
	}
	return total
}

// Close shuts every node down.
func (m *Mesh) Close() {
	for _, node := range m.nodes {
		node.Close()
	}
}

// MemMesh runs the same Handler/Env contract entirely in-process: sends
// hop straight from one node's goroutine to another's event channel — no
// sockets, no frames, no syscalls. It is the protocol-scheduling ceiling a
// TCP benchmark is measured against.
type MemMesh struct {
	nodes   []*memNode
	wg      sync.WaitGroup
	quit    chan struct{}
	linkLat func(from, to cluster.NodeID) time.Duration
}

type memNode struct {
	m       *MemMesh
	id      cluster.NodeID
	handler cluster.Handler
	fast    FastDeliverer // non-nil iff handler opts in
	env     *memEnv       // the node's Env, shared by loop and fast path
	events  chan event
	rng     *rand.Rand
	start   time.Time
}

// MemOption configures a MemMesh.
type MemOption func(*MemMesh)

// MemWithLinkLatency injects a per-link one-way delay, like the TCP
// transport's WithLinkLatency: a message from a to b is delivered
// fn(a, b) after it was sent (via a timer, so the sender never sleeps).
// That timer still rides the runtime timer heap, so a sub-millisecond
// delay is delivered ~1 ms late here (see timerSleeper). It is left alone
// because nothing measures through it — hqbench has no MemMesh workload —
// and the TCP transport's remedy does not transfer: there a writer
// goroutine per link parks on one timerfd, here every message has its own
// AfterFunc and no goroutine to park.
// Delayed messages still take the fast path where the handler allows it
// — FastDeliver is thread-safe by contract, a timer goroutine is as good
// a caller as a socket reader. Zero and negative delays keep the direct
// in-process hop.
func MemWithLinkLatency(fn func(from, to cluster.NodeID) time.Duration) MemOption {
	return func(m *MemMesh) { m.linkLat = fn }
}

// NewMemMesh builds and starts an in-process mesh over the handlers.
// Handlers implementing FastDeliverer get their thread-safe half run
// inline on the sender's goroutine: a quorum request is processed — and
// its reply queued — within the sender's Env.Send, skipping the receiving
// event loop entirely. The same contract as the TCP fast path applies
// (FastDeliver must not call Rand or After).
func NewMemMesh(handlers []cluster.Handler, opts ...MemOption) *MemMesh {
	m := &MemMesh{quit: make(chan struct{})}
	for _, o := range opts {
		o(m)
	}
	for i, h := range handlers {
		node := &memNode{
			m:       m,
			id:      cluster.NodeID(i),
			handler: h,
			events:  make(chan event, 4096),
			rng:     rand.New(rand.NewSource(int64(i) + 1)),
			start:   time.Now(),
		}
		node.env = &memEnv{n: node}
		if f, ok := h.(FastDeliverer); ok {
			node.fast = f
		}
		m.nodes = append(m.nodes, node)
	}
	for _, node := range m.nodes {
		m.wg.Add(1)
		go node.loop()
	}
	return m
}

// Kick schedules a timer callback on node i.
func (m *MemMesh) Kick(i int, d time.Duration, token any) {
	m.nodes[i].after(d, token)
}

// Close stops every event loop.
func (m *MemMesh) Close() {
	close(m.quit)
	m.wg.Wait()
}

func (n *memNode) loop() {
	defer n.m.wg.Done()
	for {
		select {
		case <-n.m.quit:
			return
		case e := <-n.events:
			switch e.kind {
			case 0:
				n.handler.Deliver(n.env, e.from, e.msg)
			case 1:
				n.handler.Timer(n.env, e.token)
			}
		}
	}
}

func (n *memNode) send(to cluster.NodeID, msg any) {
	if int(to) < 0 || int(to) >= len(n.m.nodes) {
		return
	}
	target := n.m.nodes[to]
	if n.m.linkLat != nil && to != n.id {
		if d := n.m.linkLat(n.id, to); d > 0 {
			time.AfterFunc(d, func() { n.deliver(target, msg) })
			return
		}
	}
	n.deliver(target, msg)
}

// deliver runs the receive half of a send; with injected link latency it
// may run on a timer goroutine instead of the sender's.
func (n *memNode) deliver(target *memNode, msg any) {
	// Fast path: run the receiver's thread-safe half right here on the
	// sender's goroutine. The reply it sends lands back on our event
	// channel — one channel hop per round trip instead of two.
	if target.fast != nil && target.fast.FastDeliver(target.env, n.id, msg) {
		return
	}
	// Non-blocking: two saturated event loops sending into each other
	// must shed load, not deadlock. Protocols treat the drop as loss.
	select {
	case target.events <- event{kind: 0, from: n.id, msg: msg}:
	default:
	}
}

func (n *memNode) after(d time.Duration, token any) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, func() {
		select {
		case n.events <- event{kind: 1, token: token}:
		case <-n.m.quit:
		}
	})
}

// memEnv implements cluster.Env for in-process nodes.
type memEnv struct {
	n *memNode
}

var _ cluster.Env = (*memEnv)(nil)

// ID implements cluster.Env.
func (e *memEnv) ID() cluster.NodeID { return e.n.id }

// Now implements cluster.Env (time since the mesh started).
func (e *memEnv) Now() time.Duration { return time.Since(e.n.start) }

// Send implements cluster.Env.
func (e *memEnv) Send(to cluster.NodeID, msg any) { e.n.send(to, msg) }

// Detach mirrors liveEnv.Detach. A memEnv is stateless and safe from any
// goroutine, so it is its own detached form.
func (e *memEnv) Detach() (cluster.Env, func()) { return e, func() {} }

// After implements cluster.Env.
func (e *memEnv) After(d time.Duration, token any) { e.n.after(d, token) }

// Rand implements cluster.Env.
func (e *memEnv) Rand() *rand.Rand { return e.n.rng }
