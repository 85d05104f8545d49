// Package transport runs the cluster protocols over real TCP connections.
//
// It implements the same Handler/Env contract as package cluster, so the
// mutual-exclusion (dmutex) and replicated-register (rkv) nodes run
// unchanged over loopback or LAN sockets: each node owns a listener and a
// single event loop that serializes message deliveries and timer callbacks
// (handlers still need no locking).
//
// Messages travel as length-prefixed binary frames (package codec), each
// type through the hand-written varint codec it registered with a
// codec.Registry — rkv.RegisterBinaryWire and dmutex.RegisterBinaryWire
// feed DefaultRegistry. There is no fallback: sending a type without a
// registration fails its encode and is counted as a drop, and a frame
// with an unknown tag closes the connection it arrived on.
//
// Each peer gets a dedicated writer goroutine behind a buffered queue:
// Env.Send never blocks the event loop on dials, slow peers or dead
// sockets (a full queue drops, which quorum protocols tolerate by
// design). The writer drains its queue in bursts through a bufio.Writer
// and flushes when the queue goes momentarily idle, coalescing the
// request fan-out of a quorum round into one syscall instead of one per
// message.
package transport

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/dmutex"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
)

var (
	defaultReg     *codec.Registry
	defaultRegOnce sync.Once
)

// DefaultRegistry returns the shared codec registry with every built-in
// protocol's binary wire format registered. Nodes use it unless
// WithRegistry overrides.
func DefaultRegistry() *codec.Registry {
	defaultRegOnce.Do(func() {
		defaultReg = codec.NewRegistry()
		rkv.RegisterBinaryWire(defaultReg)
		dmutex.RegisterBinaryWire(defaultReg)
	})
	return defaultReg
}

// FastDeliverer is an optional second interface for handlers whose
// messages split into a thread-safe half and an event-loop half. When the
// handler implements it, the transport offers every received message to
// FastDeliver on the reader goroutine that decoded it; returning true
// consumes the message there — no event-queue hop, and readers from
// different peers proceed in parallel — while returning false routes it
// through the ordered event loop as usual.
//
// FastDeliver runs concurrently with the event loop and with itself, so it
// must only touch state safe for that (rkv replicas: the sharded store and
// an atomic clock). The env it receives supports ID, Now and Send; it must
// not call Rand or After, which belong to the event loop.
//
// A handler that must finish a delivery later — rkv acks a write only
// once its log records are durable — calls the env's Detach (see
// liveEnv.Detach) instead of parking the reader goroutine.
//
// The fast path is disabled under WithDropRate, which exists to exercise
// the ordered path's retry logic.
type FastDeliverer interface {
	FastDeliver(env cluster.Env, from cluster.NodeID, msg any) bool
}

// Stats are a node's transport counters. Byte counts cover frame bytes on
// the wire (flushed writes and decoded reads); Flushes counts writer
// syscall batches, so Sent/Flushes is the average coalescing factor.
// HoldLateNs/Holds is how far past its due time the average WithLinkLatency
// hold woke — the injected delay's measured error, always on the late side.
type Stats struct {
	Sent     uint64 // messages handed to the transport (incl. self-sends)
	Received uint64 // frames decoded from peers
	Dropped  uint64 // messages lost to dial failures, full queues, dead conns
	FastPath uint64 // received messages consumed on the reader goroutine (FastDeliverer)
	BytesOut uint64
	BytesIn  uint64
	Flushes  uint64

	Holds      uint64 // writer sleeps on an injected link delay, run to their due time
	HoldLateNs uint64 // ns past due at wake, summed over Holds
}

// event is a queued delivery or timer callback: v is the message or the
// timer token, and kind says which. One payload field keeps the slot at
// 40 bytes on 64-bit platforms; every node's queue holds eventQueue of them.
type event struct {
	kind eventKind
	from cluster.NodeID
	v    any
	rec  *optrace.Rec // sampled delivery's trace record (queue stage open)
}

type eventKind uint8

const (
	evDeliver eventKind = iota
	evTimer
)

// eventQueue is the depth of a node's event queue: room for many
// pipelined rounds' replies from every peer, so socket readers seldom
// wait on a busy loop. A full queue holds readers back and drops
// self-sends (see send).
const eventQueue = 4096

// Option configures a Node.
type Option func(*Node)

// WithSeed seeds the node's Env.Rand stream (default: the node ID).
func WithSeed(seed int64) Option {
	return func(n *Node) { n.seed = seed }
}

// WithDropRate makes the transport drop outgoing messages with the given
// probability — fault injection for retry paths.
func WithDropRate(p float64) Option {
	return func(n *Node) { n.dropRate = p }
}

// WithDialTimeout bounds outgoing connection attempts and per-flush write
// stalls (default 1s). Dials and writes happen on per-peer writer
// goroutines, so a dead or black-holed peer only ever delays (then drops)
// its own traffic, never the event loop.
func WithDialTimeout(d time.Duration) Option {
	return func(n *Node) {
		if d > 0 {
			n.dialTimeout = d
		}
	}
}

// WithRegistry overrides the binary wire registry (default
// DefaultRegistry()).
func WithRegistry(reg *codec.Registry) Option {
	return func(n *Node) { n.reg = reg }
}

// WithLinkLatency injects a per-link one-way delay into the node's
// outgoing traffic: a message to peer p is held for fn(self, p) before
// it goes on the wire, modeling a WAN topology over loopback sockets.
// The function is sampled once per destination (links are assumed
// static); zero and negative delays mean an unmodified link.
// Self-sends are never delayed.
//
// The delay is applied on the per-peer writer goroutine, so it shifts
// when bytes leave, not when the event loop runs: Env.Send still never
// blocks, and send coalescing is preserved within a burst (messages
// whose due times are within ~latencySlack of each other share one
// flush). The delay is a lower bound, never undercut; Stats.HoldLateNs
// over Stats.Holds is how far past it the writer's clock (sleeper) woke.
func WithLinkLatency(fn func(from, to cluster.NodeID) time.Duration) Option {
	return func(n *Node) { n.linkLat = fn }
}

// writerQueue is each peer writer's buffer depth. Sized for several
// pipelined quorum fan-outs; overflow drops (loss, not backpressure — the
// event loop must never block).
const writerQueue = 1024

// latencySlack decides who shares a flush on a delayed link, never when
// anything leaves: a message due within latencySlack of the batch being
// encoded joins it — the writer naps out the difference mid-batch, so the
// batch's earlier members leave up to latencySlack late and nothing leaves
// early — and one due further out waits behind that batch's flush.
// Messages enqueued within one event-loop iteration land microseconds
// apart; without the slack a quorum fan-out's burst would cost one flush
// syscall per message instead of one.
const latencySlack = 100 * time.Microsecond

// timedMsg wraps a queued message with its enqueue time when the link
// has an injected delay; the writer holds it until at+delay.
type timedMsg struct {
	msg any
	at  time.Time
}

// tracedMsg wraps a queued message with the sampled op's trace record:
// the writer stamps encode time and closes the send stage after the
// flush that carried the frame. When a link also has injected latency,
// the timedMsg wrap goes outside this one.
type tracedMsg struct {
	msg any
	rec *optrace.Rec
}

// Node hosts a protocol handler on a TCP listener.
type Node struct {
	id          cluster.NodeID
	handler     cluster.Handler
	fast        FastDeliverer // non-nil iff handler opts in and dropRate == 0
	seed        int64
	dropRate    float64
	dialTimeout time.Duration
	reg         *codec.Registry
	linkLat     func(from, to cluster.NodeID) time.Duration
	newSleeper  func(quit <-chan struct{}) sleeper // the platform's; tests substitute the fallback
	trace       *optrace.Tracer                    // handler's tracer (optrace.Source), nil otherwise

	ln     net.Listener
	start  time.Time
	events chan event
	wg     sync.WaitGroup
	quit   chan struct{}
	closed atomic.Bool

	mu       sync.Mutex
	peers    map[cluster.NodeID]string
	writers  map[cluster.NodeID]*peerWriter
	accepted map[net.Conn]struct{}
	rng      *rand.Rand // used only from the event loop

	// Drop sampling has its own stream: detached deliveries send from
	// goroutines other than the event loop.
	dropMu  sync.Mutex
	dropRng *rand.Rand

	sent     atomic.Uint64
	received atomic.Uint64
	dropped  atomic.Uint64
	fastPath atomic.Uint64
	bytesOut atomic.Uint64
	bytesIn  atomic.Uint64
	flushes  atomic.Uint64

	holds      atomic.Uint64
	holdLateNs atomic.Uint64
}

// NewNode creates a node listening on addr ("127.0.0.1:0" for an ephemeral
// loopback port).
func NewNode(id cluster.NodeID, handler cluster.Handler, addr string, opts ...Option) (*Node, error) {
	if handler == nil {
		return nil, fmt.Errorf("transport: nil handler for node %d", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &Node{
		id:          id,
		handler:     handler,
		seed:        int64(id) + 1,
		dialTimeout: time.Second,
		reg:         DefaultRegistry(),
		newSleeper:  newSleeper,
		ln:          ln,
		start:       time.Now(),
		events:      make(chan event, eventQueue),
		quit:        make(chan struct{}),
		peers:       make(map[cluster.NodeID]string),
		writers:     make(map[cluster.NodeID]*peerWriter),
		accepted:    make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(n)
	}
	if f, ok := handler.(FastDeliverer); ok && n.dropRate == 0 {
		n.fast = f
	}
	// A handler that owns an op tracer gets its transport stages stamped
	// into the same histogram set (decode, queue wait, encode, send).
	if src, ok := handler.(optrace.Source); ok {
		n.trace = src.Tracer()
	}
	n.rng = rand.New(rand.NewSource(n.seed))
	n.dropRng = rand.New(rand.NewSource(n.seed ^ 0x64726f70))
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Now returns the node's monotonic clock (time since transport start),
// the same time base handlers observe via env.Now() — for off-loop
// readers like metrics endpoints that need to timestamp handler-fed
// state (e.g. the rkv workload profiler).
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// Connect records the peer address book (including or excluding self; self
// sends short-circuit through the local queue either way).
func (n *Node) Connect(peers map[cluster.NodeID]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, addr := range peers {
		n.peers[id] = addr
	}
}

// Start launches the accept and event loops.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.acceptLoop()
	go n.eventLoop()
}

// Kick schedules a timer callback, like cluster.Network.StartTimer.
func (n *Node) Kick(d time.Duration, token any) {
	n.after(d, token)
}

// Close shuts the node down and waits for its loops. Idempotent: chaos
// harnesses crash individual nodes mid-run, then the mesh teardown
// closes every node again.
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		n.wg.Wait()
		return
	}
	close(n.quit)
	n.ln.Close()
	n.mu.Lock()
	writers := make([]*peerWriter, 0, len(n.writers))
	for _, w := range n.writers {
		writers = append(writers, w)
	}
	n.writers = map[cluster.NodeID]*peerWriter{}
	for c := range n.accepted {
		c.Close()
	}
	n.mu.Unlock()
	for _, w := range writers {
		w.close()
	}
	n.wg.Wait()
}

// Sent returns the number of messages handed to the transport.
func (n *Node) Sent() uint64 { return n.sent.Load() }

// Stats returns a snapshot of the node's transport counters. Safe to call
// concurrently with a running node.
func (n *Node) Stats() Stats {
	return Stats{
		Sent:     n.sent.Load(),
		Received: n.received.Load(),
		Dropped:  n.dropped.Load(),
		FastPath: n.fastPath.Load(),
		BytesOut: n.bytesOut.Load(),
		BytesIn:  n.bytesIn.Load(),
		Flushes:  n.flushes.Load(),

		Holds:      n.holds.Load(),
		HoldLateNs: n.holdLateNs.Load(),
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

func (n *Node) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer c.Close()
	n.mu.Lock()
	n.accepted[c] = struct{}{}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.accepted, c)
		n.mu.Unlock()
	}()
	ar := &arrivalReader{r: c}
	dec := codec.NewDecoder(bufio.NewReaderSize(ar, 64<<10), n.reg)
	env := &liveEnv{n: n} // fast-path env: ID/Now/Send only (see FastDeliverer)
	var consumed uint64
	for {
		if n.closing() {
			return
		}
		// The sampling decision is taken before Decode so unsampled
		// frames (the 1-in-N common case) pay zero clock reads here.
		rec := n.trace.Sample()
		var t0 int64
		if rec != nil {
			t0 = optrace.Clock()
		}
		from, msg, err := dec.Decode()
		n.bytesIn.Add(dec.BytesRead() - consumed)
		consumed = dec.BytesRead()
		if err != nil {
			return
		}
		n.received.Add(1)
		if rec != nil {
			// Decode blocks while the socket is idle; start the clock at
			// whichever is later of "we began parsing" and "the bytes
			// arrived", so idle wait never counts as decode time. A frame
			// already buffered uses t0.
			start := t0
			if at := ar.at; at > start {
				start = at
			}
			rec.BeginAt(optrace.StageTotal, start)
			rec.BeginAt(optrace.StageDecode, start)
			rec.End(optrace.StageDecode)
		}
		if n.fast != nil {
			env.rec = rec
			ok := n.fast.FastDeliver(env, cluster.NodeID(from), msg)
			// Whatever the handler did not hand off (to a peer writer by
			// sending, or to a detached env) is still ours.
			rec, env.rec = env.rec, nil
			if ok {
				n.fastPath.Add(1)
				rec.Done()
				continue
			}
		}
		rec.Begin(optrace.StageQueue)
		ev := event{kind: evDeliver, from: cluster.NodeID(from), v: msg, rec: rec}
		select {
		case n.events <- ev:
		default:
			// The queue is full: wait for room or for Close.
			select {
			case n.events <- ev:
			case <-n.quit:
				return
			}
		}
	}
}

// closing reports whether Close has begun. The loops ask it once per
// iteration instead of selecting on quit beside every channel operation:
// a non-blocking receive on the open, empty quit channel takes no lock,
// while a select over it locks quit — one lock that every reader, writer
// and the event loop of a node would share. They select on quit only when
// their own channel operation would block.
func (n *Node) closing() bool {
	select {
	case <-n.quit:
		return true
	default:
		return false
	}
}

// arrivalReader stamps the tracer clock after every successful read from
// the socket — one clock read per syscall — so sampled frames know when
// their bytes actually arrived, independent of when Decode got to them.
type arrivalReader struct {
	r  net.Conn
	at int64
}

func (a *arrivalReader) Read(p []byte) (int, error) {
	m, err := a.r.Read(p)
	if m > 0 {
		a.at = optrace.Clock()
	}
	return m, err
}

func (n *Node) eventLoop() {
	defer n.wg.Done()
	env := &liveEnv{n: n}
	for !n.closing() {
		var e event
		select {
		case e = <-n.events:
		default:
			select {
			case e = <-n.events:
			case <-n.quit:
				return
			}
		}
		switch e.kind {
		case evDeliver:
			e.rec.End(optrace.StageQueue)
			env.rec = e.rec
			n.handler.Deliver(env, e.from, e.v)
			env.rec.Done() // nil once handed off
			env.rec = nil
		case evTimer:
			n.handler.Timer(env, e.v)
		}
	}
}

// send hands a message to a peer's writer queue (or the local event
// queue). It never blocks: a missing peer or a full queue drops the
// message, which the quorum protocols absorb as loss. That holds for
// self-sends too — the event loop is usually the sender, and a loop
// blocked on its own full queue would never drain it.
//
// rec, when non-nil, is the in-flight delivery's trace record. A remote
// send that reaches the peer's queue hands the record to that writer,
// which closes the send stage after the flush that carried the frame
// and folds it; send then reports true and the caller must forget the
// record — the writer may finish and recycle it at any moment, so
// ownership is decided by this return value, never by reading the
// record again. Later sends of the same delivery (quorum fan-out)
// therefore travel unwrapped — one delivery, one send-stage measurement.
func (n *Node) send(to cluster.NodeID, msg any, rec *optrace.Rec) bool {
	n.sent.Add(1)
	if n.dropRate > 0 {
		n.dropMu.Lock()
		drop := n.dropRng.Float64() < n.dropRate
		n.dropMu.Unlock()
		if drop {
			n.dropped.Add(1)
			return false
		}
	}
	if to == n.id {
		select {
		case n.events <- event{kind: evDeliver, from: n.id, v: msg}:
		default:
			n.dropped.Add(1)
		}
		return false
	}
	w, err := n.writer(to)
	if err != nil {
		n.dropped.Add(1)
		return false
	}
	if rec != nil {
		rec.Begin(optrace.StageSend)
		msg = tracedMsg{msg: msg, rec: rec}
	}
	if w.delay > 0 {
		msg = timedMsg{msg: msg, at: time.Now()}
	}
	select {
	case w.ch <- msg:
		return rec != nil
	default:
		n.dropped.Add(1) // writer wedged or flooded: shed, don't stall
		return false     // the writer never saw it; the caller folds what it has
	}
}

// writer returns (starting if needed) the peer's writer goroutine.
func (n *Node) writer(to cluster.NodeID) (*peerWriter, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if w, ok := n.writers[to]; ok {
		return w, nil
	}
	addr, ok := n.peers[to]
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %d", to)
	}
	select {
	case <-n.quit:
		return nil, fmt.Errorf("transport: node closed")
	default:
	}
	w := &peerWriter{n: n, addr: addr, ch: make(chan any, writerQueue), done: make(chan struct{})}
	if n.linkLat != nil {
		w.delay = n.linkLat(n.id, to)
	}
	if w.delay > 0 {
		w.sleeper = n.newSleeper(n.quit)
	}
	n.writers[to] = w
	n.wg.Add(1)
	go w.run()
	return w, nil
}

// peerWriter owns one peer's outgoing connection: it dials, encodes and
// flushes on its own goroutine so connection trouble is invisible to the
// event loop.
type peerWriter struct {
	n     *Node
	addr  string
	ch    chan any
	done  chan struct{}
	delay time.Duration // injected one-way link latency (WithLinkLatency)

	// sleeper is what hold sleeps on; non-nil iff delay > 0, so an
	// undelayed mesh opens no timer descriptors.
	sleeper sleeper

	mu   sync.Mutex
	conn net.Conn // current connection, for Close to unwedge blocked writes
}

func (w *peerWriter) setConn(c net.Conn) {
	w.mu.Lock()
	w.conn = c
	w.mu.Unlock()
}

// close interrupts any in-flight write or hold and waits for the
// goroutine.
func (w *peerWriter) close() {
	w.mu.Lock()
	if w.conn != nil {
		w.conn.Close()
	}
	w.mu.Unlock()
	if w.sleeper != nil {
		w.sleeper.close()
	}
	<-w.done
}

// drain empties the queue, returning the number of messages discarded —
// called after a failure so a dead peer costs one dial per burst, not one
// per message. Trace records riding discarded messages are folded (Done
// closes their open stages) so claimed recs never leak.
func (w *peerWriter) drain() uint64 {
	var m uint64
	for {
		select {
		case raw := <-w.ch:
			if _, _, rec := w.unwrap(raw); rec != nil {
				rec.Done()
			}
			m++
		default:
			return m
		}
	}
}

// hold sleeps until the message's injected due time, never less (or
// until the writer is closed, in which case the remaining delay is
// abandoned — shutdown, not timing fidelity).
func (w *peerWriter) hold(until time.Time) {
	d := time.Until(until)
	if d <= 0 {
		return
	}
	for ; d > 0; d = time.Until(until) {
		if !w.sleeper.sleep(d) {
			return
		}
	}
	w.n.holds.Add(1)
	w.n.holdLateNs.Add(uint64(-d))
}

// unwrap resolves a queued entry to its payload, due time (zero for
// undelayed links) and trace record (nil for unsampled messages).
func (w *peerWriter) unwrap(raw any) (msg any, due time.Time, rec *optrace.Rec) {
	if tm, ok := raw.(timedMsg); ok {
		due = tm.at.Add(w.delay)
		raw = tm.msg
	}
	if tr, ok := raw.(tracedMsg); ok {
		return tr.msg, due, tr.rec
	}
	return raw, due, nil
}

func (w *peerWriter) run() {
	defer w.n.wg.Done()
	defer close(w.done)
	var conn net.Conn
	var bw *bufio.Writer
	var enc *codec.Encoder
	// recs holds the trace records of sampled messages in the current
	// batch; their send stage closes when the covering flush returns (or
	// the batch fails — Done folds whatever was measured either way).
	var recs []*optrace.Rec
	finishRecs := func() {
		for i, r := range recs {
			r.End(optrace.StageSend)
			r.Done()
			recs[i] = nil
		}
		recs = recs[:0]
	}
	fail := func(batched uint64) {
		if conn != nil {
			conn.Close()
			w.setConn(nil)
			conn = nil
		}
		w.n.dropped.Add(batched + w.drain())
		finishRecs()
	}
	var held any // popped but future-due: flushed the batch in front of it first
	for {
		if w.n.closing() {
			fail(0)
			return
		}
		var raw any
		if held != nil {
			raw, held = held, nil
		} else {
			select {
			case raw = <-w.ch:
			default:
				select {
				case raw = <-w.ch:
				case <-w.n.quit:
					fail(0)
					return
				}
			}
		}
		msg, due, rec := w.unwrap(raw)
		if rec != nil {
			recs = append(recs, rec)
		}
		if !due.IsZero() {
			w.hold(due)
		}
		if conn == nil {
			c, err := net.DialTimeout("tcp", w.addr, w.n.dialTimeout)
			if err != nil {
				fail(1)
				continue
			}
			conn = c
			w.setConn(c)
			bw = bufio.NewWriterSize(countingWriter{w: conn, count: &w.n.bytesOut}, 64<<10)
			enc = codec.NewEncoder(bw, w.n.reg)
		}
		// Coalesce: encode into the buffer while messages keep coming,
		// flush once the queue goes idle. bufio flushes itself mid-burst
		// if the batch outgrows the buffer. On a delayed link the injected
		// latency is a lower bound: a message due within latencySlack joins
		// the current batch (a bounded mid-batch nap keeps it from leaving
		// early); one due further out waits behind the batch's flush so the
		// messages in front of it are not held hostage.
		var batched uint64
		encodeFailed := false
		for {
			rec.Begin(optrace.StageEncode)
			if _, err := enc.Encode(uint64(w.n.id), msg); err != nil {
				fail(batched + 1)
				encodeFailed = true
				break
			}
			rec.End(optrace.StageEncode)
			batched++
			select {
			case raw := <-w.ch:
				var due time.Time
				var next *optrace.Rec
				msg, due, next = w.unwrap(raw)
				if !due.IsZero() {
					if time.Until(due) > latencySlack {
						held = raw // flush what we have, then sleep on it
						break      // held's rec joins the NEXT batch
					}
					w.hold(due)
				}
				rec = next
				if rec != nil {
					recs = append(recs, rec)
				}
				continue
			default:
			}
			break
		}
		if encodeFailed {
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(w.n.dialTimeout))
		if err := bw.Flush(); err != nil {
			fail(batched)
			continue
		}
		w.n.flushes.Add(1)
		finishRecs()
	}
}

// countingWriter tallies bytes that actually reach the socket.
type countingWriter struct {
	w     net.Conn
	count *atomic.Uint64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	m, err := cw.w.Write(p)
	cw.count.Add(uint64(m))
	return m, err
}

func (n *Node) after(d time.Duration, token any) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, func() {
		select {
		case n.events <- event{kind: evTimer, v: token}:
		case <-n.quit:
		}
	})
}

// liveEnv implements cluster.Env over the real network. Each event loop
// and each reader goroutine owns its own instance, matching the
// simulation's single-threaded handler contract; rec is the in-flight
// delivery's trace record, set around each Deliver/FastDeliver call.
// Holding the non-nil pointer is owning the record: a hand-off (Send to
// a peer writer, Detach) clears it, and whoever still holds it when the
// delivery ends folds it.
type liveEnv struct {
	n   *Node
	rec *optrace.Rec
}

var (
	_ cluster.Env     = (*liveEnv)(nil)
	_ optrace.Carrier = (*liveEnv)(nil)
)

// ID implements cluster.Env.
func (e *liveEnv) ID() cluster.NodeID { return e.n.id }

// Now implements cluster.Env (time since the node started).
func (e *liveEnv) Now() time.Duration { return time.Since(e.n.start) }

// Send implements cluster.Env.
func (e *liveEnv) Send(to cluster.NodeID, msg any) {
	if e.n.send(to, msg, e.rec) {
		e.rec = nil
	}
}

// Detach moves the in-flight delivery — and its trace record — into a
// fresh Env that stays valid after the handler returns, for handlers
// that finish a delivery on another goroutine (rkv releasing a write ack
// from the WAL's committer). The detached env supports ID, Now and Send
// from one goroutine at a time; done folds the record if no send handed
// it on, and must be called exactly once. Close waits for outstanding
// detached deliveries like it waits for the reader that started them.
func (e *liveEnv) Detach() (cluster.Env, func()) {
	d := &liveEnv{n: e.n, rec: e.rec}
	e.rec = nil
	d.n.wg.Add(1) // by a reader or the event loop, themselves counted
	return d, func() {
		d.rec.Done()
		d.rec = nil
		d.n.wg.Done()
	}
}

// TraceRec implements optrace.Carrier: handlers stamp their stages into
// the delivery's sampled record (nil when unsampled — stamps no-op).
func (e *liveEnv) TraceRec() *optrace.Rec { return e.rec }

// After implements cluster.Env.
func (e *liveEnv) After(d time.Duration, token any) { e.n.after(d, token) }

// Rand implements cluster.Env.
func (e *liveEnv) Rand() *rand.Rand { return e.n.rng }
