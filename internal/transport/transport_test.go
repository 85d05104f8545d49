package transport

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/dmutex"
	"hquorum/internal/epoch"
	"hquorum/internal/histo"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
)

// echo is a minimal handler for plumbing tests.
type echo struct {
	mu       sync.Mutex
	got      []string
	timers   int
	replyTo  cluster.NodeID
	autoPong bool
}

type ping struct{ Text string }

// pingWire puts ping on the binary wire; every node of a plumbing test
// takes it in place of the protocols' DefaultRegistry.
var pingWire = WithRegistry(func() *codec.Registry {
	reg := codec.NewRegistry()
	reg.Register(1, ping{},
		func(b []byte, v any) []byte { return codec.AppendString(b, v.(ping).Text) },
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := ping{Text: r.String()}
			return m, r.Err()
		})
	return reg
}())

// hgrid44 builds one node's epoch store on the 16-node h-grid.
func hgrid44(t *testing.T) *epoch.Store {
	t.Helper()
	st, err := epoch.NewStore(16, epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func (e *echo) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	p := msg.(ping)
	e.mu.Lock()
	e.got = append(e.got, p.Text)
	e.mu.Unlock()
	if e.autoPong && p.Text == "ping" {
		env.Send(from, ping{Text: "pong"})
	}
}

func (e *echo) Timer(env cluster.Env, token any) {
	e.mu.Lock()
	e.timers++
	e.mu.Unlock()
	env.Send(e.replyTo, ping{Text: "ping"})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestPingPongOverTCP(t *testing.T) {
	a := &echo{autoPong: true}
	b := &echo{}
	na, err := NewNode(1, a, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := NewNode(2, b, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	b.replyTo = 1
	book := map[cluster.NodeID]string{1: na.Addr(), 2: nb.Addr()}
	na.Connect(book)
	nb.Connect(book)
	na.Start()
	nb.Start()

	nb.Kick(0, "go") // b's timer sends ping to a; a pongs back
	waitFor(t, 5*time.Second, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(a.got) == 1 && len(b.got) == 1
	})
	if a.got[0] != "ping" || b.got[0] != "pong" {
		t.Fatalf("a=%v b=%v", a.got, b.got)
	}
}

// selfFlood sends itself n messages from its first timer callback and
// counts what comes back; its next timer callback closes served.
type selfFlood struct {
	n         int
	delivered atomic.Int64
	timers    atomic.Int64
	served    chan struct{}
}

func (f *selfFlood) Deliver(env cluster.Env, from cluster.NodeID, msg any) { f.delivered.Add(1) }

func (f *selfFlood) Timer(env cluster.Env, token any) {
	if f.timers.Add(1) > 1 {
		close(f.served)
		return
	}
	for i := 0; i < f.n; i++ {
		env.Send(env.ID(), i)
	}
}

// TestSelfSendFloodDoesNotWedge: the event loop sending itself more
// messages than its queue holds must not block on its own queue — nothing
// else would ever drain it. What fits is delivered, the overflow is
// dropped and counted, and the loop goes on serving timers.
func TestSelfSendFloodDoesNotWedge(t *testing.T) {
	const flood = eventQueue + 904
	f := &selfFlood{n: flood, served: make(chan struct{})}
	n, err := NewNode(1, f, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()
	n.Kick(0, "flood")
	waitFor(t, 10*time.Second, func() bool { return f.delivered.Load() >= eventQueue })
	n.Kick(0, "after")
	select {
	case <-f.served:
	case <-time.After(10 * time.Second):
		t.Fatal("the loop served no timer after the flood")
	}
	// The later timer queued behind every flood message that fit.
	if got, dropped := f.delivered.Load(), n.Stats().Dropped; uint64(got)+dropped != flood {
		t.Fatalf("%d delivered + %d dropped, want the flood's %d", got, dropped, flood)
	}
}

// relay never lets its node go idle: every message it receives goes back
// to itself and on to its peer, so the event queue is never empty and the
// peer writer always has a frame waiting.
type relay struct {
	peer      cluster.NodeID
	delivered atomic.Int64
}

func (r *relay) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	r.delivered.Add(1)
	env.Send(env.ID(), msg)
	env.Send(r.peer, msg)
}

func (r *relay) Timer(env cluster.Env, token any) { env.Send(env.ID(), ping{Text: "seed"}) }

// TestCloseWhileLoopsStayBusy: the event loop, the readers and the peer
// writers take their next message without selecting on quit while one is
// ready, so each must still notice a Close within one iteration. Two nodes
// relay an ever-growing stream to themselves and each other; Close on
// both must return promptly, with every loop still finding work.
func TestCloseWhileLoopsStayBusy(t *testing.T) {
	ra, rb := &relay{peer: 2}, &relay{peer: 1}
	na, err := NewNode(1, ra, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := NewNode(2, rb, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	book := map[cluster.NodeID]string{1: na.Addr(), 2: nb.Addr()}
	na.Connect(book)
	nb.Connect(book)
	na.Start()
	nb.Start()
	na.Kick(0, "go")
	nb.Kick(0, "go")
	waitFor(t, 10*time.Second, func() bool { return ra.delivered.Load() > 1000 && rb.delivered.Load() > 1000 })
	closed := make(chan struct{})
	go func() {
		na.Close()
		nb.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while the loops had work")
	}
}

// TestEventSlotSize: a queued event carries its message or timer token in
// one field, which keeps the slot at 40 bytes on 64-bit platforms.
func TestEventSlotSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(event{}) != 40 {
		t.Fatalf("event slot is %d bytes, want 40", unsafe.Sizeof(event{}))
	}
}

// TestMutexOverTCP runs the full Maekawa protocol over loopback TCP:
// mutual exclusion must hold under real concurrency, and every lock frame
// must travel on its binary binding (tags 0x27-0x2d) — a message without
// one would fail to encode and show up as a drop.
func TestMutexOverTCP(t *testing.T) {
	sys := htriang.New(4) // 10 nodes

	var guard sync.Mutex
	holding := false
	entries := 0

	var nodes []*Node
	var mnodes []*dmutex.Node
	book := map[cluster.NodeID]string{}
	for i := 0; i < sys.Universe(); i++ {
		id := cluster.NodeID(i)
		mn, err := dmutex.NewNode(id, dmutex.Config{
			System:       sys,
			RetryTimeout: 2 * time.Second,
			Workload:     dmutex.Workload{Count: 2, Hold: 2 * time.Millisecond, Think: time.Millisecond},
			OnAcquire: func(id cluster.NodeID, at time.Duration) {
				guard.Lock()
				defer guard.Unlock()
				if holding {
					t.Errorf("mutual exclusion violated by node %d", id)
				}
				holding = true
				entries++
			},
			OnRelease: func(cluster.NodeID, time.Duration) {
				guard.Lock()
				defer guard.Unlock()
				holding = false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := NewNode(id, mn, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		book[id] = tn.Addr()
		nodes = append(nodes, tn)
		mnodes = append(mnodes, mn)
	}
	for _, tn := range nodes {
		tn.Connect(book)
		tn.Start()
	}
	for i, tn := range nodes {
		tn.Kick(0, mnodes[i].StartToken())
	}
	waitFor(t, 30*time.Second, func() bool {
		guard.Lock()
		defer guard.Unlock()
		return entries == 2*sys.Universe()
	})
	for i, tn := range nodes {
		if st := tn.Stats(); st.Dropped != 0 {
			t.Errorf("node %d dropped %d of %d lock frames", i, st.Dropped, st.Sent)
		}
	}
}

// TestMutexOverLossyTCP exercises the retry path with 20% message loss.
func TestMutexOverLossyTCP(t *testing.T) {
	sys := htgrid.Auto(3, 3)

	var guard sync.Mutex
	holding := false
	entries := 0

	var nodes []*Node
	var mnodes []*dmutex.Node
	book := map[cluster.NodeID]string{}
	for i := 0; i < 9; i++ {
		id := cluster.NodeID(i)
		mn, err := dmutex.NewNode(id, dmutex.Config{
			System:       sys,
			RetryTimeout: 150 * time.Millisecond,
			Workload:     dmutex.Workload{Count: 1, Hold: time.Millisecond, Think: time.Millisecond},
			OnAcquire: func(id cluster.NodeID, at time.Duration) {
				guard.Lock()
				defer guard.Unlock()
				if holding {
					t.Errorf("mutual exclusion violated by node %d", id)
				}
				holding = true
				entries++
			},
			OnRelease: func(cluster.NodeID, time.Duration) {
				guard.Lock()
				defer guard.Unlock()
				holding = false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := NewNode(id, mn, "127.0.0.1:0", WithDropRate(0.2), WithSeed(int64(i)+100))
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		book[id] = tn.Addr()
		nodes = append(nodes, tn)
		mnodes = append(mnodes, mn)
	}
	for _, tn := range nodes {
		tn.Connect(book)
		tn.Start()
	}
	for i, tn := range nodes {
		tn.Kick(0, mnodes[i].StartToken())
	}
	waitFor(t, 60*time.Second, func() bool {
		guard.Lock()
		defer guard.Unlock()
		return entries == 9
	})
}

// submitSeq submits ops on node in order, each from the previous op's
// callback — Submit's sequential contract — appending the results to *out
// under mu. kick schedules a token on the node's event loop.
func submitSeq(kick func(time.Duration, any), node *rkv.Node, mu *sync.Mutex, out *[]rkv.Result, ops ...rkv.Op) {
	node.SetWake(func() { kick(0, node.StartToken()) })
	var next func(ops []rkv.Op)
	next = func(ops []rkv.Op) {
		if len(ops) == 0 {
			return
		}
		node.Submit(ops[0], func(r rkv.Result) {
			mu.Lock()
			*out = append(*out, r)
			mu.Unlock()
			next(ops[1:])
		})
	}
	next(ops)
}

// TestRegisterOverTCP: replicated-register read-after-write over loopback.
func TestRegisterOverTCP(t *testing.T) {

	var mu sync.Mutex
	var results []rkv.Result

	var nodes []*Node
	var replicas []*rkv.Node
	book := map[cluster.NodeID]string{}
	for i := 0; i < 16; i++ {
		id := cluster.NodeID(i)
		rn, err := rkv.NewNode(id, rkv.Config{Epochs: hgrid44(t)})
		if err != nil {
			t.Fatal(err)
		}
		tn, err := NewNode(id, rn, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		book[id] = tn.Addr()
		nodes = append(nodes, tn)
		replicas = append(replicas, rn)
	}
	for _, tn := range nodes {
		tn.Connect(book)
		tn.Start()
	}
	submitSeq(nodes[0].Kick, replicas[0], &mu, &results,
		rkv.Op{Kind: rkv.OpWrite, Value: "w1"}, rkv.Op{Kind: rkv.OpBlindWrite, Value: "tcp-value"}, rkv.Op{Kind: rkv.OpRead})
	waitFor(t, 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results) == 3
	})
	// The final read must observe the blind write stamped after the
	// read-write update.
	if results[2].Kind != rkv.OpRead || results[2].Value != "tcp-value" {
		t.Fatalf("read returned %+v", results[2])
	}
}

// TestFastPathServesReplicaMessages: rkv implements FastDeliverer, so
// replica-side messages (batch reads/writes) are consumed on the reader
// goroutines — visible in Stats().FastPath — while results stay correct.
// WithDropRate must disable the fast path (drop sampling needs the event
// loop's rng).
func TestFastPathServesReplicaMessages(t *testing.T) {
	run := func(opts ...Option) uint64 {
		var mu sync.Mutex
		var results []rkv.Result
		handlers := make([]cluster.Handler, 16)
		var replicas []*rkv.Node
		for i := 0; i < 16; i++ {
			rn, err := rkv.NewNode(cluster.NodeID(i), rkv.Config{Epochs: hgrid44(t), Batch: 2})
			if err != nil {
				t.Fatal(err)
			}
			handlers[i] = rn
			replicas = append(replicas, rn)
		}
		mesh, err := NewMesh(handlers, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		mesh.Start()
		submitSeq(mesh.Node(0).Kick, replicas[0], &mu, &results,
			rkv.Op{Kind: rkv.OpWrite, Key: "a", Value: "fast-a"},
			rkv.Op{Kind: rkv.OpWrite, Key: "b", Value: "fast-b"},
			rkv.Op{Kind: rkv.OpRead, Key: "a"},
			rkv.Op{Kind: rkv.OpRead, Key: "b"})
		waitFor(t, 30*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(results) == 4
		})
		mu.Lock()
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%v %q failed: %v", r.Kind, r.Key, r.Err)
			}
			if r.Kind == rkv.OpRead && r.Value != "fast-"+r.Key {
				t.Fatalf("read %q returned %q", r.Key, r.Value)
			}
		}
		mu.Unlock()
		return mesh.Stats().FastPath
	}
	if fast := run(); fast == 0 {
		t.Fatal("no message took the fast path")
	}
	// A vanishingly small drop rate never actually drops here, but its
	// mere presence must force every message through the event loop.
	if fast := run(WithDropRate(1e-12)); fast != 0 {
		t.Fatalf("fast path served %d messages despite WithDropRate", fast)
	}
}

// TestRedialAfterPeerRestart: when a peer dies and comes back on the same
// address, the cached connection fails its next encode, gets evicted, and
// the following send re-dials — no operator intervention, no permanent
// blackhole.
func TestRedialAfterPeerRestart(t *testing.T) {
	a := &echo{}
	na, err := NewNode(1, a, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	b := &echo{}
	nb, err := NewNode(2, b, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	addr := nb.Addr()
	na.Connect(map[cluster.NodeID]string{2: addr})
	na.Start()
	nb.Start()

	// Prime the cached connection.
	na.send(2, ping{Text: "before"}, nil)
	waitFor(t, 5*time.Second, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.got) == 1
	})

	// Kill the peer and bring a fresh one up on the same address.
	nb.Close()
	b2 := &echo{}
	nb2, err := NewNode(2, b2, addr, pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer nb2.Close()
	nb2.Start()

	// Early sends hit the dead cached connection (dropped, evicted);
	// subsequent sends must re-dial and get through.
	waitFor(t, 10*time.Second, func() bool {
		na.send(2, ping{Text: "after"}, nil)
		b2.mu.Lock()
		defer b2.mu.Unlock()
		return len(b2.got) > 0
	})
}

// TestWithDialTimeout: the dial timeout is configurable and a send to an
// unreachable peer returns promptly (dropped, not wedged).
func TestWithDialTimeout(t *testing.T) {
	n, err := NewNode(1, &echo{}, "127.0.0.1:0", WithDialTimeout(50*time.Millisecond), pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.dialTimeout != 50*time.Millisecond {
		t.Fatalf("dialTimeout %v, want 50ms", n.dialTimeout)
	}
	// A just-closed ephemeral port refuses connections: the send must
	// return promptly and count as dropped, never wedge the caller.
	dead, err := NewNode(3, &echo{}, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	n.Connect(map[cluster.NodeID]string{2: deadAddr})
	begin := time.Now()
	n.send(2, ping{Text: "void"}, nil)
	if elapsed := time.Since(begin); elapsed > 900*time.Millisecond {
		t.Fatalf("send to unreachable peer took %v", elapsed)
	}
	// The dial happens on the peer's writer goroutine; the drop lands
	// once it times out.
	waitFor(t, 5*time.Second, func() bool { return n.Stats().Dropped > 0 })
}

// TestBlackHoledPeerDoesNotStallOthers is the regression test for the
// send-path stall: a peer that accepts TCP connections but never reads
// (black hole) used to wedge the shared send path once kernel buffers
// filled. With per-peer writer goroutines, traffic to healthy peers keeps
// flowing while the black hole's queue sheds.
func TestBlackHoledPeerDoesNotStallOthers(t *testing.T) {
	// The black hole: a listener whose connections are never read.
	hole, err := newBlackHole()
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()

	healthy := &echo{}
	nb, err := NewNode(2, healthy, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	na, err := NewNode(1, &echo{}, "127.0.0.1:0", WithDialTimeout(500*time.Millisecond), pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	na.Connect(map[cluster.NodeID]string{2: nb.Addr(), 3: hole.Addr().String()})
	na.Start()
	nb.Start()

	// Flood the black hole with large payloads until its socket buffers
	// must be full many times over.
	big := string(make([]byte, 256<<10))
	for i := 0; i < 64; i++ {
		na.send(3, ping{Text: big}, nil)
	}
	// Sends to the healthy peer must still go through promptly.
	begin := time.Now()
	na.send(2, ping{Text: "alive"}, nil)
	waitFor(t, 5*time.Second, func() bool {
		healthy.mu.Lock()
		defer healthy.mu.Unlock()
		return len(healthy.got) == 1
	})
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("healthy peer delivery took %v behind a black-holed peer", elapsed)
	}
}

// newBlackHole listens and accepts but never reads.
func newBlackHole() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c // held open, never read
		}
	}()
	return ln, nil
}

// TestCoalescingStats: a quorum-style fan-out of back-to-back sends lands
// in fewer flushes than messages, and the byte counters line up on both
// ends of each connection.
func TestCoalescingStats(t *testing.T) {
	sink := &echo{}
	nb, err := NewNode(2, sink, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	na, err := NewNode(1, &echo{}, "127.0.0.1:0", pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	na.Connect(map[cluster.NodeID]string{2: nb.Addr()})
	na.Start()
	nb.Start()

	const burst = 200
	for i := 0; i < burst; i++ {
		na.send(2, ping{Text: "x"}, nil)
	}
	waitFor(t, 10*time.Second, func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return len(sink.got) == burst
	})
	sa, sb := na.Stats(), nb.Stats()
	if sa.Sent != burst || sa.Dropped != 0 {
		t.Fatalf("sender stats %+v", sa)
	}
	if sb.Received != burst {
		t.Fatalf("receiver got %d frames, want %d", sb.Received, burst)
	}
	if sa.Flushes == 0 || sa.Flushes >= burst {
		t.Fatalf("flushes %d for %d messages: coalescing not happening", sa.Flushes, burst)
	}
	if sa.BytesOut == 0 || sa.BytesOut != sb.BytesIn {
		t.Fatalf("bytes out %d != bytes in %d", sa.BytesOut, sb.BytesIn)
	}
}

// TestReconfigOverTCP is the acceptance scenario live: a 16-replica
// loopback-TCP cluster running majority quorums swaps to the h-T-grid
// while a sequential write/read workload is in flight, driven by the same
// ReconfigClient that backs `quorumctl reconfig`. Every operation must
// complete, every read must observe its preceding write (linearizable
// across the epoch boundary for this single-writer history), and every
// replica must settle on the stable target config at epoch 3.
func TestReconfigOverTCP(t *testing.T) {
	initial := epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 16)}
	target := epoch.Params{Flavor: epoch.FlavorHTGrid, Rows: 4, Cols: 4, Members: epoch.MemberRange(0, 16)}

	const pairs = 20
	var mu sync.Mutex
	var results []rkv.Result
	var stores []*epoch.Store
	var replicas []*rkv.Node
	handlers := make([]cluster.Handler, 17)
	for i := 0; i < 16; i++ {
		es, err := epoch.NewStore(16, initial)
		if err != nil {
			t.Fatal(err)
		}
		rn, err := rkv.NewNode(cluster.NodeID(i), rkv.Config{Epochs: es})
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = rn
		stores = append(stores, es)
		replicas = append(replicas, rn)
	}

	// The reconfiguration client is node 16 — outside the member set, like
	// a quorumctl process with its own peers-file entry. Node 1
	// coordinates, so the swap and the workload drive different replicas.
	swapped := make(chan struct{})
	var rcEpoch uint64
	var rcErr string
	client := rkv.NewReconfigClient(1, target, 500*time.Millisecond, func(e uint64, errText string) {
		rcEpoch, rcErr = e, errText
		close(swapped)
	})
	handlers[16] = client

	mesh, err := NewMesh(handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	mesh.Start()
	var ops []rkv.Op
	for j := 0; j < pairs; j++ {
		ops = append(ops,
			rkv.Op{Kind: rkv.OpWrite, Value: fmt.Sprintf("v%03d", j)},
			rkv.Op{Kind: rkv.OpRead})
	}
	submitSeq(mesh.Node(0).Kick, replicas[0], &mu, &results, ops...)
	mesh.Node(16).Kick(0, client.StartToken())

	waitFor(t, 30*time.Second, func() bool {
		select {
		case <-swapped:
		default:
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return len(results) == 2*pairs
	})
	if rcErr != "" {
		t.Fatalf("reconfiguration failed: %s", rcErr)
	}
	if rcEpoch != 3 {
		t.Fatalf("reconfiguration settled at epoch %d, want 3", rcEpoch)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d failed across the swap: %v", i, r.Err)
		}
	}
	// The workload is submitted sequentially, so results arrive in op
	// order: each read must return the value written just before it.
	for i := 1; i < len(results); i += 2 {
		if want := fmt.Sprintf("v%03d", i/2); results[i].Value != want {
			t.Fatalf("read %d returned %q, want %q", i/2, results[i].Value, want)
		}
	}
	// Every replica — not just the finalize quorum — catches up to the
	// stable target config via the coordinator's best-effort pushes.
	waitFor(t, 10*time.Second, func() bool {
		for _, es := range stores {
			if snap := es.Snapshot(); snap.Joint() || snap.Epoch != 3 || !snap.Cur.Equal(target) {
				return false
			}
		}
		return true
	})
}

// TestMemMesh: the in-process mesh runs the same protocols with no
// sockets at all.
func TestMemMesh(t *testing.T) {
	var mu sync.Mutex
	var results []rkv.Result
	var replicas []*rkv.Node
	var handlers []cluster.Handler
	for i := 0; i < 16; i++ {
		rn, err := rkv.NewNode(cluster.NodeID(i), rkv.Config{Epochs: hgrid44(t)})
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, rn)
		handlers = append(handlers, rn)
	}
	mesh := NewMemMesh(handlers)
	defer mesh.Close()
	kick := func(d time.Duration, token any) { mesh.Kick(0, d, token) }
	submitSeq(kick, replicas[0], &mu, &results, rkv.Op{Kind: rkv.OpWrite, Value: "mem"}, rkv.Op{Kind: rkv.OpRead})
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(results) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if results[1].Value != "mem" {
		t.Fatalf("in-process read returned %+v", results[1])
	}
}

// TestSampledFramesFoldOnce drives 1-in-1 sampled frames through a Mesh
// for a few seconds: every frame's trace record travels reader →
// handler → peer writer (and, on the disk backend, through the WAL's
// committer via a detached env), and each hop may finish and recycle it
// the moment it is handed on. A hop that touches the record after
// handing it on folds it twice — a nil dereference in optrace.Rec.Done
// once the record has been pooled, or a data race with its next user —
// so the test passing under -race is the assertion. On the disk backend
// the folded stages must also add up: at least five stages saw samples,
// and the per-frame stages' medians (every stage but the whole-round
// waits total, quorum and lease, which span the others plus the network)
// sum to no more than the submitters' observed p50 — a round trip costs
// at least the server work inside it.
func TestSampledFramesFoldOnce(t *testing.T) {
	for _, storage := range []string{"memory", "disk"} {
		t.Run(storage, func(t *testing.T) {
			maj4 := epoch.Params{Flavor: epoch.FlavorMajority, R: 3, W: 3, Members: epoch.MemberRange(0, 4)}
			var handlers []cluster.Handler
			var nodes []*rkv.Node
			for i := 0; i < 4; i++ {
				es, err := epoch.NewStore(4, maj4)
				if err != nil {
					t.Fatal(err)
				}
				cfg := rkv.Config{Epochs: es, Window: 8, Batch: 4, OpGap: -1, TraceSample: 1, ReadWriteback: true}
				if storage == "disk" && i > 0 {
					cfg.Storage, cfg.DataDir = "disk", filepath.Join(t.TempDir(), fmt.Sprintf("n%d", i))
				}
				rn, err := rkv.NewNode(cluster.NodeID(i), cfg)
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, rn)
				handlers = append(handlers, rn)
			}
			mesh, err := NewMesh(handlers)
			if err != nil {
				t.Fatal(err)
			}
			mesh.Start()
			nodes[0].SetWake(func() { mesh.Node(0).Kick(0, nodes[0].StartToken()) })

			// 32 closed-loop submitters on node 0 for two seconds, each
			// timing its own ops into its own histogram.
			var done sync.WaitGroup
			var ops, failed atomic.Uint64
			var lat [32]histo.Histogram
			stop := time.Now().Add(2 * time.Second)
			for c := range lat {
				done.Add(1)
				var next func(i int)
				c := c
				next = func(i int) {
					if time.Now().After(stop) {
						done.Done()
						return
					}
					op := rkv.Op{Kind: rkv.OpWrite, Key: fmt.Sprintf("k%d", (c*7+i)%64), Value: "v"}
					if i%3 == 0 {
						op.Kind = rkv.OpRead
					}
					start := time.Now()
					nodes[0].Submit(op, func(r rkv.Result) {
						lat[c].RecordDuration(time.Since(start))
						ops.Add(1)
						if r.Err != nil {
							failed.Add(1)
						}
						next(i + 1)
					})
				}
				next(0)
			}
			done.Wait()
			mesh.Close()
			for _, rn := range nodes {
				if err := rn.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if ops.Load() < 100 || failed.Load() != 0 {
				t.Fatalf("%d ops completed, %d failed", ops.Load(), failed.Load())
			}
			snap := nodes[0].TraceSnapshot()
			for _, rn := range nodes[1:] {
				if err := snap.Merge(rn.TraceSnapshot()); err != nil {
					t.Fatal(err)
				}
			}
			if recv := mesh.Stats().Received; snap.Sampled < recv/2 || snap.Stages["send"].Count == 0 {
				t.Fatalf("%d records folded (%d with a send stage) for %d frames received: sampling is not reaching the writers", snap.Sampled, snap.Stages["send"].Count, recv)
			}
			if storage != "disk" {
				return
			}
			client := histo.New()
			for c := range lat {
				client.Merge(&lat[c])
			}
			p50 := float64(client.Quantile(0.5)) / 1e3
			sum, seen := 0.0, 0
			var parts []string
			for _, name := range optrace.StageNames() {
				st := snap.Stages[name]
				if st.Count == 0 {
					continue
				}
				seen++
				if name == "total" || name == "quorum" || name == "lease" {
					continue
				}
				sum += st.P50Us
				parts = append(parts, fmt.Sprintf("%s=%.1f", name, st.P50Us))
			}
			t.Logf("%d stages sampled; per-frame stage medians sum %.1fµs (%s), client p50 %.1fµs",
				seen, sum, strings.Join(parts, " "), p50)
			if seen < 5 {
				t.Errorf("only %d stages saw samples, want at least 5: trace plumbing is rotting", seen)
			}
			if sum > p50 {
				t.Errorf("per-frame stage medians sum %.1fµs > client p50 %.1fµs", sum, p50)
			}
		})
	}
}
