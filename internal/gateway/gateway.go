// The gateway tier multiplexes thousands of lightweight client
// connections onto a small pool of shared rkv sessions. Each session is
// a pipelined (Window) and batched (Batch) quorum client; the gateway
// feeds them through rkv's external submission API, so unrelated
// clients' operations coalesce into shared quorum rounds — the fan-in
// that makes "a client per end user" affordable.
//
// Scheduling is round-robin over connections: a connection with pending
// requests sits in a ready ring, and each turn dispatches one of its
// requests — plus a small burst more when session capacity is spare
// (see Config.DispatchBurst) — so a flooding client cannot starve a
// polite one.
// Admission is bounded at two levels: per client, at most ClientQueue
// requests may be pending before the gateway sheds (StatusOverloaded —
// a typed refusal, not silent queueing), and globally the dispatcher
// holds at most Sessions×SessionDepth operations in flight, blocking
// (backpressure, not loss) when every session is saturated.
//
// Reconfiguration is invisible to gateway clients: an operation that
// fails because its session's epoch went stale mid-round is resubmitted
// on the next session with a fresh deadline, up to Retries times.
package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/internal/epoch"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
)

// ErrOverloaded is the typed shed error: the gateway refused a request
// because the client exceeded its pending budget. Clients see it as
// StatusOverloaded and should back off before retrying.
var ErrOverloaded = errors.New("gateway: overloaded")

// ErrSessionLost reports an operation whose session never called back
// within OpTimeout — its coordinator crashed with the op in flight.
var ErrSessionLost = errors.New("gateway: session lost")

// Session is the gateway's view of an rkv client session: thread-safe
// operation submission with a per-op completion callback. *rkv.Node
// implements it directly.
type Session interface {
	Submit(op rkv.Op, cb func(rkv.Result))
}

// LeaseRouter is an optional Session refinement: a session that can
// serve some reads from its local store (rkv read leases) advertises
// coverage, and the dispatcher routes every operation on a covered key
// to it ahead of the fair rotation — reads complete there with zero
// quorum messages, and a write costs the holder one round and keeps
// the lease (self-keep), where on any other session it would pay an
// invalidation round and revoke the lease the reads depend on. The
// hint is advisory; a stale answer costs one ordinary quorum round.
// *rkv.Node implements it.
type LeaseRouter interface {
	LeasedRead(key string) bool
}

// Config parameterizes a gateway server.
type Config struct {
	// Sessions is the pool of quorum sessions requests fan into.
	Sessions []Session
	// SessionDepth bounds the operations the gateway keeps in flight per
	// session (default 64). Sized near Window×Batch it keeps a session's
	// op table saturated without unbounded queueing in front of it; the
	// global in-flight budget is Sessions×SessionDepth.
	SessionDepth int
	// ClientQueue is the per-connection pending-request budget (default
	// 16). A request arriving while the budget is exhausted is shed with
	// StatusOverloaded instead of queued.
	ClientQueue int
	// Retries bounds transparent resubmission of a READ whose session
	// failed it with a stale-epoch, restarted-coordinator or
	// session-lost error (default 3). Writes are never resubmitted: a
	// failed write may have partially applied with its original version
	// stamp, and re-executing it would stamp the same value anew —
	// letting an old value resurface after later writes, which a
	// linearizability checker rightly rejects. (rkv's internal
	// stale-epoch restart re-ships the same stamp, so ordinary
	// reconfigurations stay invisible to writes too; only a write that
	// exhausts its whole OpDeadline mid-reconfig surfaces a typed
	// failure, with at-most-once "maybe" semantics.)
	Retries int
	// OpTimeout, when positive, arms a watchdog per dispatched
	// operation: a session that never calls back (its coordinator's
	// event loop died mid-run) has the op failed with ErrSessionLost
	// instead of leaking its token forever. Set it well above the
	// sessions' OpDeadline so it only fires for genuinely dead
	// sessions, never for slow ops. Zero disables the watchdog.
	OpTimeout time.Duration
	// DispatchBurst caps how many of one connection's requests a single
	// ready-ring turn may dispatch (default 4). The extra dispatches
	// only happen when session capacity is spare (their tokens are
	// acquired without blocking), so under saturation scheduling
	// degenerates to strict one-per-turn round-robin; with headroom, a
	// connection's pipelined requests land in the same quorum batch,
	// complete together, and coalesce into one response flush instead
	// of one syscall each.
	DispatchBurst int
	// Trace, when set, samples client requests into per-stage histograms
	// (gw_queue: pending-queue wait; gw_dispatch: ready-ring turn to
	// session acceptance). Point it at a session node's Tracer() so
	// gateway stages land next to the server's, or at a dedicated one.
	Trace *optrace.Tracer
}

// Stats counts gateway activity; all fields are cumulative.
type Stats struct {
	Accepted  uint64 // connections accepted
	Requests  uint64 // requests read from clients
	Responses uint64 // responses written (including sheds)
	Shed      uint64 // requests refused with StatusOverloaded
	Retries   uint64 // epoch-transparent resubmissions
	Failed    uint64 // operations that returned StatusFailed
}

// Server is a running gateway.
type Server struct {
	cfg    Config
	ln     net.Listener
	ready  chan *conn
	tokens chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup

	accepted  atomic.Uint64
	requests  atomic.Uint64
	responses atomic.Uint64
	shed      atomic.Uint64
	retries   atomic.Uint64
	failed    atomic.Uint64

	// down[i] quarantines session i until the stored unix-nano deadline:
	// a session whose watchdog fired is skipped by the rotation for two
	// OpTimeouts, so a dead coordinator costs a couple of probe ops per
	// cooldown instead of a watchdog stall per routed op.
	down []atomic.Int64

	mu    sync.Mutex
	conns map[*conn]struct{}
}

// readyRing is the ready channel's capacity: an upper bound on
// simultaneously queued connections (each connection occupies at most
// one slot). Matches the file-descriptor scale a single gateway serves.
const readyRing = 1 << 15

// Serve starts a gateway listening on addr ("127.0.0.1:0" for an
// ephemeral port).
func Serve(addr string, cfg Config) (*Server, error) {
	if len(cfg.Sessions) == 0 {
		return nil, fmt.Errorf("gateway: config needs at least one session")
	}
	if cfg.SessionDepth <= 0 {
		cfg.SessionDepth = 64
	}
	if cfg.ClientQueue <= 0 {
		cfg.ClientQueue = 16
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.DispatchBurst <= 0 {
		cfg.DispatchBurst = 4
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:    cfg,
		ln:     ln,
		ready:  make(chan *conn, readyRing),
		tokens: make(chan struct{}, len(cfg.Sessions)*cfg.SessionDepth),
		quit:   make(chan struct{}),
		conns:  make(map[*conn]struct{}),
		down:   make([]atomic.Int64, len(cfg.Sessions)),
	}
	for i := 0; i < cap(s.tokens); i++ {
		s.tokens <- struct{}{}
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.dispatch()
	return s, nil
}

// Addr returns the gateway's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the gateway's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:  s.accepted.Load(),
		Requests:  s.requests.Load(),
		Responses: s.responses.Load(),
		Shed:      s.shed.Load(),
		Retries:   s.retries.Load(),
		Failed:    s.failed.Load(),
	}
}

// Close shuts the gateway down: stop accepting, drop every client
// connection, stop dispatching. The sessions are the caller's to close.
func (s *Server) Close() {
	close(s.quit)
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.kill()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		c := &conn{
			s:      s,
			nc:     nc,
			writeQ: make(chan response, s.cfg.ClientQueue+256),
			closed: make(chan struct{}),
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// dispatch is the fairness core: each ready-ring turn dispatches one
// request from the connection — plus up to DispatchBurst-1 more, but
// only on tokens that are free right now — against a global token per
// in-flight operation (blocking when the session pool is saturated —
// backpressure toward the ready ring, and transitively toward
// per-client budgets and sheds).
func (s *Server) dispatch() {
	defer s.wg.Done()
	rr := 0
	for {
		var c *conn
		select {
		case c = <-s.ready:
		case <-s.quit:
			return
		}
		req, ok, more := c.pop()
		if ok && !c.dead.Load() {
			select {
			case <-s.tokens:
			case <-s.quit:
				return
			}
			s.submit(c, req, rr, 0)
			rr++
			// Burst extension: spare capacity only — a token that is not
			// immediately free ends the turn, so a saturated pool still
			// schedules strict one-per-turn round-robin.
			for k := 1; k < s.cfg.DispatchBurst && more && !c.dead.Load(); k++ {
				select {
				case <-s.tokens:
				default:
					k = s.cfg.DispatchBurst
					continue
				}
				if req, ok, more = c.pop(); !ok {
					s.tokens <- struct{}{}
					break
				}
				s.submit(c, req, rr, 0)
				rr++
			}
		}
		if more {
			s.ready <- c // tail of the ring: round-robin, not run-to-completion
		}
	}
}

// retryable reports whether a failed operation may be transparently
// resubmitted: reads only (they have no effects to double-apply), and
// only for failures that say "this session's view died under the op",
// not "the cluster is unhealthy".
func retryable(kind rkv.OpKind, err error) bool {
	return kind == rkv.OpRead &&
		(errors.Is(err, epoch.ErrStaleEpoch) || errors.Is(err, rkv.ErrRestarted) || errors.Is(err, ErrSessionLost))
}

// pickSession resolves a rotation slot to a session index, skipping
// quarantined sessions. With every session down the slot's own session
// is used anyway — it doubles as the periodic liveness probe.
func (s *Server) pickSession(slot int) int {
	n := len(s.cfg.Sessions)
	now := time.Now().UnixNano()
	for k := 0; k < n; k++ {
		if i := (slot + k) % n; s.down[i].Load() <= now {
			return i
		}
	}
	return ((slot % n) + n) % n
}

// pickLeased returns the first live session advertising a read lease
// covering key, starting from def (the rotation's own choice, so a
// leaseholder that is also the fair pick keeps its batch locality).
func (s *Server) pickLeased(key string, def int) (int, bool) {
	n := len(s.cfg.Sessions)
	now := time.Now().UnixNano()
	for k := 0; k < n; k++ {
		i := (def + k) % n
		if s.down[i].Load() > now {
			continue
		}
		if lr, ok := s.cfg.Sessions[i].(LeaseRouter); ok && lr.LeasedRead(key) {
			return i, true
		}
	}
	return 0, false
}

// opCall is one dispatched operation's completion state: who to answer
// (c, req), where it is in the rotation (rr, attempt, idx), and the
// watchdog/callback race arbiter (fired). Records are pooled — the
// per-op cost is one method-value closure instead of two captured
// closures plus their environment.
type opCall struct {
	s        *Server
	c        *conn
	req      request
	rr       int
	attempt  int
	idx      int
	fired    atomic.Bool
	watchdog *time.Timer
}

var opPool = sync.Pool{New: func() any { return new(opCall) }}

// submit hands one request to a session; the completion path recycles
// the token and routes the response. It runs (and re-runs, on retry) on
// whatever goroutine the session completes on, so it must never block:
// responses go through the connection's bounded write queue.
func (s *Server) submit(c *conn, req request, rr, attempt int) {
	// First dispatch closes the queue-wait stage; the dispatch stage
	// covers routing up to the session accepting the op (retries ride the
	// same record, accumulating further dispatch intervals).
	req.rec.End(optrace.StageGwQueue)
	req.rec.Begin(optrace.StageGwDispatch)
	o := opPool.Get().(*opCall)
	o.s, o.c, o.req, o.rr, o.attempt = s, c, req, rr, attempt
	o.idx = s.pickSession(rr + attempt)
	if i, ok := s.pickLeased(req.key, o.idx); ok {
		o.idx = i
	}
	o.fired.Store(false)
	o.watchdog = nil
	if s.cfg.OpTimeout > 0 {
		o.watchdog = time.AfterFunc(s.cfg.OpTimeout, o.expire)
	}
	// Close the dispatch stage before the hand-off: once Submit is called
	// the completion path owns the record (the callback may fire — and
	// fold it — before Submit even returns).
	req.rec.End(optrace.StageGwDispatch)
	s.cfg.Sessions[o.idx].Submit(rkv.Op{Kind: req.kind, Key: req.key, Value: req.value}, o.done)
}

// done is the session's completion callback.
func (o *opCall) done(res rkv.Result) {
	// Recycling is safe only when the watchdog provably never runs:
	// either it was never armed, or Stop caught it before firing. A
	// watchdog that already fired (or is mid-fire) still holds this
	// record — losing the CAS below is how that race resolves — so the
	// record must then fall to the garbage collector instead of the pool.
	recycle := o.watchdog == nil || o.watchdog.Stop()
	o.finish(res, recycle)
}

// expire is the watchdog path: the session never called back. The
// record is never recycled from here — the session's callback may still
// arrive arbitrarily late and must find this op, not a reused one.
func (o *opCall) expire() { o.finish(rkv.Result{Err: ErrSessionLost}, false) }

func (o *opCall) finish(res rkv.Result, recycle bool) {
	if !o.fired.CompareAndSwap(false, true) {
		return // watchdog and callback raced; first one wins
	}
	s, c, req, rr, attempt := o.s, o.c, o.req, o.rr, o.attempt
	if errors.Is(res.Err, ErrSessionLost) {
		s.down[o.idx].Store(time.Now().Add(2 * s.cfg.OpTimeout).UnixNano())
	}
	if recycle {
		o.c, o.req = nil, request{}
		opPool.Put(o)
	}
	if res.Err != nil && attempt < s.cfg.Retries && retryable(req.kind, res.Err) {
		// The session's config went stale mid-round (live reconfig), or
		// its coordinator restarted or died: resubmit the read on the
		// next session with a fresh deadline, keeping the token —
		// invisible to the client beyond latency.
		s.retries.Add(1)
		s.submit(c, req, rr, attempt+1)
		return
	}
	s.tokens <- struct{}{}
	req.rec.Done()
	resp := response{id: req.id}
	switch {
	case res.Err != nil:
		resp.status = StatusFailed
		resp.errText = res.Err.Error()
		s.failed.Add(1)
	default:
		resp.status = StatusOK
		resp.version = res.Version
		resp.value = res.Value
	}
	c.respond(resp)
}

// conn is one client connection: a reader feeding the bounded pending
// queue, a writer draining the response queue, and a slot in the ready
// ring while requests are pending.
type conn struct {
	s      *Server
	nc     net.Conn
	writeQ chan response
	closed chan struct{}
	dead   atomic.Bool

	// pending[head:] is the request queue. Draining advances head and
	// resets it to 0 whenever the queue empties, so the slice's capacity
	// is reused steadily instead of appends chasing a forever-advancing
	// window (which reallocates on every wrap).
	mu      sync.Mutex
	pending []request
	head    int
	queued  bool
}

// kill tears the connection down once; pending callbacks finish against
// the dead connection and their responses are dropped.
func (c *conn) kill() {
	if c.dead.CompareAndSwap(false, true) {
		close(c.closed)
		c.nc.Close()
	}
}

// pop takes the oldest pending request; more reports whether the
// connection should stay in the ready ring.
func (c *conn) pop() (req request, ok, more bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == len(c.pending) {
		c.queued = false
		return request{}, false, false
	}
	req = c.pending[c.head]
	c.pending[c.head] = request{} // release key/value strings promptly
	c.head++
	if c.head == len(c.pending) {
		c.pending = c.pending[:0]
		c.head = 0
		c.queued = false
		return req, true, false
	}
	return req, true, true
}

// push admits a request into the pending queue, or sheds it when the
// client's budget is exhausted. Reports whether the connection needs to
// (re)join the ready ring.
func (c *conn) push(r request) (enqueue, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending)-c.head >= c.s.cfg.ClientQueue {
		return false, false
	}
	c.pending = append(c.pending, r)
	if !c.queued {
		c.queued = true
		return true, true
	}
	return false, true
}

// respond queues a response for the writer. A full queue means the
// client stopped reading while flooding: drop the connection rather
// than block a session callback.
func (c *conn) respond(r response) {
	if c.dead.Load() {
		return
	}
	select {
	case c.writeQ <- r:
	default:
		c.kill()
	}
}

func (c *conn) readLoop() {
	defer c.s.wg.Done()
	defer c.teardown()
	br := bufio.NewReaderSize(c.nc, 16<<10)
	for {
		req, err := decodeRequest(br)
		if err != nil {
			return
		}
		c.s.requests.Add(1)
		if req.rec = c.s.cfg.Trace.Sample(); req.rec != nil {
			kind := optrace.KindWrite
			if req.kind == rkv.OpRead {
				kind = optrace.KindRead
			}
			req.rec.Tag(kind, 1, 0)
			req.rec.Begin(optrace.StageGwQueue)
		}
		enqueue, ok := c.push(req)
		if !ok {
			c.s.shed.Add(1)
			req.rec.Done() // shed before queueing: fold the (empty) record
			c.respond(response{id: req.id, status: StatusOverloaded})
			continue
		}
		if enqueue {
			select {
			case c.s.ready <- c:
			case <-c.s.quit:
				return
			}
		}
	}
}

func (c *conn) teardown() {
	c.kill()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

func (c *conn) writeLoop() {
	defer c.s.wg.Done()
	bw := bufio.NewWriterSize(c.nc, 16<<10)
	for {
		var r response
		select {
		case r = <-c.writeQ:
		case <-c.closed:
			return
		}
		// Coalesce: encode while responses keep coming, flush on idle —
		// a client with several operations in flight pays one syscall for
		// the burst, same as the replica transport's writers.
		for {
			if err := encodeResponse(bw, r); err != nil {
				c.kill()
				return
			}
			c.s.responses.Add(1)
			select {
			case r = <-c.writeQ:
				continue
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			c.kill()
			return
		}
	}
}
