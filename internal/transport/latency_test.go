package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hquorum/internal/cluster"
)

// stamper records wall-clock arrival times of pings.
type stamper struct {
	mu sync.Mutex
	at []time.Time
	to cluster.NodeID
}

func (s *stamper) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.mu.Unlock()
}

func (s *stamper) Timer(env cluster.Env, token any) {
	for i := 0; i < token.(int); i++ {
		env.Send(s.to, ping{Text: "p"})
	}
}

func (s *stamper) stamps() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.at...)
}

// TestLinkLatencyTCP injects a one-way delay on one direction of a TCP
// pair: deliveries on the delayed link must arrive no earlier than the
// delay, including mid-burst (the writer must not let coalescing leak
// early sends), while the reverse direction stays fast.
func TestLinkLatencyTCP(t *testing.T) {
	const delay = 60 * time.Millisecond
	lat := func(from, to cluster.NodeID) time.Duration {
		if from == 1 && to == 2 {
			return delay
		}
		return 0
	}
	a, b := &stamper{to: 2}, &stamper{to: 1}
	na, err := NewNode(1, a, "127.0.0.1:0", WithLinkLatency(lat), pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := NewNode(2, b, "127.0.0.1:0", WithLinkLatency(lat), pingWire)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	book := map[cluster.NodeID]string{1: na.Addr(), 2: nb.Addr()}
	na.Connect(book)
	nb.Connect(book)
	na.Start()
	nb.Start()

	const burst = 5
	sent := time.Now()
	na.Kick(0, burst) // a bursts pings to b over the delayed link
	waitFor(t, 5*time.Second, func() bool { return len(b.stamps()) == burst })
	for i, at := range b.stamps() {
		if got := at.Sub(sent); got < delay {
			t.Fatalf("delayed delivery %d arrived after %v, want ≥ %v", i, got, delay)
		}
	}

	sent = time.Now()
	nb.Kick(0, 1) // reverse link is undelayed
	waitFor(t, 5*time.Second, func() bool { return len(a.stamps()) == 1 })
	if got := a.stamps()[0].Sub(sent); got > delay/2 {
		t.Fatalf("undelayed delivery took %v — delay leaked onto the wrong link", got)
	}
}

// TestLinkLatencyMemMesh: the in-process mesh honors the same option via
// timer-deferred delivery.
func TestLinkLatencyMemMesh(t *testing.T) {
	const delay = 40 * time.Millisecond
	a, b := &stamper{to: 1}, &stamper{}
	mesh := NewMemMesh([]cluster.Handler{a, b}, MemWithLinkLatency(func(from, to cluster.NodeID) time.Duration {
		if from == 0 && to == 1 {
			return delay
		}
		return 0
	}))
	defer mesh.Close()
	sent := time.Now()
	mesh.Kick(0, 0, 3)
	waitFor(t, 5*time.Second, func() bool { return len(b.stamps()) == 3 })
	for i, at := range b.stamps() {
		if got := at.Sub(sent); got < delay {
			t.Fatalf("delivery %d arrived after %v, want ≥ %v", i, got, delay)
		}
	}
}

// TestStatsUnderConcurrency hammers a two-node mesh from many client
// goroutines while other goroutines snapshot Stats: the counters are
// atomics raced on purpose (the race detector patrols this test), and
// the totals must balance once traffic drains.
func TestStatsUnderConcurrency(t *testing.T) {
	a := &echo{autoPong: true}
	b := &echo{replyTo: 1}
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
	book := map[cluster.NodeID]string{1: na.Addr(), 2: nb.Addr()}
	na.Connect(book)
	nb.Connect(book)
	na.Start()
	nb.Start()

	const (
		goroutines = 8
		kicks      = 40
	)
	var stop atomic.Bool
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				_ = na.Stats()
				_ = nb.Stats()
			}
		}()
	}
	var kickers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		kickers.Add(1)
		go func() {
			defer kickers.Done()
			for i := 0; i < kicks; i++ {
				nb.Kick(0, "go") // b's timer pings a; a pongs back
			}
		}()
	}
	kickers.Wait()
	const total = goroutines * kicks
	waitFor(t, 10*time.Second, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(a.got) == total && len(b.got) == total
	})
	stop.Store(true)
	readers.Wait()

	sa, sb := na.Stats(), nb.Stats()
	if sa.Sent != total || sb.Sent != total {
		t.Fatalf("sent %d/%d, want %d each", sa.Sent, sb.Sent, total)
	}
	if sa.Received != total || sb.Received != total {
		t.Fatalf("received %d/%d, want %d each", sa.Received, sb.Received, total)
	}
	if sa.BytesOut == 0 || sa.Flushes == 0 || sa.Flushes > sa.Sent {
		t.Fatalf("implausible counters: %+v", sa)
	}
}
