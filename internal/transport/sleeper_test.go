package transport

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/optrace"
)

// sleepers are the two hold clocks a test can put under a node: the
// platform's own, and the time.Timer fallback forced through the
// Node.newSleeper seam — on Linux that is the only way the non-Linux path
// ever runs here.
var sleepers = []struct {
	name string
	make func(quit <-chan struct{}) sleeper
}{
	{"platform", newSleeper},
	{"fallback", newTimerSleeper},
}

// hopMsg is two varints on the wire, the shape of an rkv ack, so what it
// measures is the transport.
type hopMsg struct{ Epoch, Seq uint64 }

func hopRegistry() *codec.Registry {
	reg := codec.NewRegistry()
	reg.Register(1, hopMsg{},
		func(b []byte, v any) []byte {
			m := v.(hopMsg)
			return codec.AppendUvarint(codec.AppendUvarint(b, m.Epoch), m.Seq)
		},
		func(data []byte) (any, error) {
			r := codec.NewReader(data)
			m := hopMsg{Epoch: r.Uvarint(), Seq: r.Uvarint()}
			return m, r.Err()
		})
	return reg
}

// sink is a handler that reports every delivery, in order, on a channel.
type sink chan arrival

type arrival struct {
	seq uint64
	at  time.Time
}

func (s sink) Deliver(_ cluster.Env, _ cluster.NodeID, msg any) {
	s <- arrival{seq: msg.(hopMsg).Seq, at: time.Now()}
}

func (s sink) Timer(cluster.Env, any) {}

// next returns the sink's next delivery.
func (s sink) next(t testing.TB) arrival {
	t.Helper()
	select {
	case a := <-s:
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery in 10s")
		panic("unreachable")
	}
}

// delayedPair starts two connected nodes (ids 1 and 2) speaking hopMsg,
// with delay injected both ways and the given hold clock under their
// writers.
func delayedPair(t testing.TB, a, b cluster.Handler, delay time.Duration, mk func(<-chan struct{}) sleeper) (na, nb *Node) {
	t.Helper()
	opts := []Option{
		WithRegistry(hopRegistry()),
		WithLinkLatency(func(from, to cluster.NodeID) time.Duration { return delay }),
	}
	na, err := NewNode(1, a, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	nb, err = NewNode(2, b, "127.0.0.1:0", opts...)
	if err != nil {
		na.Close()
		t.Fatal(err)
	}
	na.newSleeper, nb.newSleeper = mk, mk
	book := map[cluster.NodeID]string{1: na.Addr(), 2: nb.Addr()}
	na.Connect(book)
	nb.Connect(book)
	na.Start()
	nb.Start()
	return na, nb
}

// TestLinkLatencySubMillisecond: a 200 µs link is a 200 µs link. 300
// lock-stepped round trips over loopback TCP, 200 µs each way: every
// delivery arrives no earlier than the delay (the contract, on either
// hold clock), and on Linux the platform clock adds little on top — the
// runtime timer heap it replaced woke every hold ~0.9 ms late and made
// the round trip 2.6 ms. The upper bounds are taken where a shared box
// cannot move them: in its bad minutes one wake-up in ten is 2 ms late
// under either clock, which drags a mean over 600 holds (and sometimes
// the median round trip) wherever the neighbours please, but leaves the
// fast quartile and the best 20-hold window of Stats.HoldLateNs alone.
func TestLinkLatencySubMillisecond(t *testing.T) {
	const (
		delay  = 200 * time.Microsecond
		rounds = 300
		window = 10 // round trips per Stats window
	)
	for _, sl := range sleepers {
		t.Run(sl.name, func(t *testing.T) {
			atA, atB := make(sink, 1), make(sink, 1)
			na, nb := delayedPair(t, atA, atB, delay, sl.make)
			defer na.Close()
			defer nb.Close()
			hop := func(from *Node, to cluster.NodeID, at sink) time.Time {
				sent := time.Now()
				from.send(to, hopMsg{}, nil)
				got := at.next(t).at
				if took := got.Sub(sent); took < delay {
					t.Fatalf("delivery %v after its send, want ≥ %v", took, delay)
				}
				return got
			}
			holds := func() (n uint64, late time.Duration) {
				sa, sb := na.Stats(), nb.Stats()
				return sa.Holds + sb.Holds, time.Duration(sa.HoldLateNs + sb.HoldLateNs)
			}

			rtts := make([]time.Duration, rounds)
			bestLate := time.Duration(math.MaxInt64)
			var n0 uint64
			var late0 time.Duration
			for r := range rtts {
				start := time.Now()
				hop(na, 2, atB)
				rtts[r] = hop(nb, 1, atA).Sub(start)
				if (r+1)%window == 0 {
					n, late := holds()
					if n > n0 {
						bestLate = min(bestLate, (late-late0)/time.Duration(n-n0))
					}
					n0, late0 = n, late
				}
			}
			if n0 == 0 || n0 > 2*rounds {
				t.Fatalf("%d holds counted for %d lock-stepped messages", n0, 2*rounds)
			}
			sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
			fast := rtts[rounds/4]
			t.Logf("RTT fast quartile %v, median %v; hold lateness best window %v, overall mean %v",
				fast, rtts[rounds/2], bestLate, late0/time.Duration(n0))
			if sl.name != "platform" || runtime.GOOS != "linux" {
				return
			}
			if fast > 1200*time.Microsecond {
				t.Errorf("fast-quartile RTT %v over a %v/%v link, want < 1.2ms", fast, delay, delay)
			}
			if bestLate > 300*time.Microsecond {
				t.Errorf("holds woke %v late on average in their best window, want < 300µs", bestLate)
			}
		})
	}
}

// TestLinkLatencyBurstFIFO sends a burst where every other message
// carries a trace record (the tracedMsg-inside-timedMsg wrap) and pauses
// split it into groups due further apart than latencySlack, so the
// writer both coalesces within a group and parks a future-due message
// behind a flush: the link stays FIFO, nothing arrives early, and every
// record is folded exactly once.
func TestLinkLatencyBurstFIFO(t *testing.T) {
	const (
		delay = time.Millisecond
		burst = 64
	)
	for _, sl := range sleepers {
		t.Run(sl.name, func(t *testing.T) {
			at := make(sink, burst)
			na, nb := delayedPair(t, make(sink, 1), at, delay, sl.make)
			defer na.Close()
			defer nb.Close()
			tracer := optrace.New(1)
			sent := make([]time.Time, burst)
			for k := range sent {
				if k > 0 && k%16 == 0 {
					time.Sleep(3 * latencySlack)
				}
				var rec *optrace.Rec
				if k%2 == 1 {
					rec = tracer.Sample()
				}
				sent[k] = time.Now()
				if handed := na.send(2, hopMsg{Seq: uint64(k)}, rec); handed != (rec != nil) {
					t.Fatalf("message %d: send reported handed=%v for rec=%v", k, handed, rec != nil)
				}
			}
			for k := range sent {
				a := at.next(t)
				if a.seq != uint64(k) {
					t.Fatalf("delivery %d was message %d: link reordered", k, a.seq)
				}
				if took := a.at.Sub(sent[k]); took < delay {
					t.Fatalf("message %d arrived %v after its send, want ≥ %v", k, took, delay)
				}
			}
			waitFor(t, 5*time.Second, func() bool { return tracer.Snapshot().Sampled == burst/2 })
		})
	}
}

// TestCloseEndsHold: closing a node whose writer is mid-hold returns at
// once instead of waiting the 60 ms hold out. Three tries, because at
// once is a scheduling promise and the box is shared; waiting the hold
// out would fail all three.
func TestCloseEndsHold(t *testing.T) {
	const delay = 60 * time.Millisecond
	for _, sl := range sleepers {
		t.Run(sl.name, func(t *testing.T) {
			var took time.Duration
			for try := 0; try < 3; try++ {
				na, nb := delayedPair(t, make(sink, 1), make(sink, 1), delay, sl.make)
				na.send(2, hopMsg{}, nil)
				time.Sleep(10 * time.Millisecond) // the writer is now asleep on the message
				// (Close lets it go early; nb's buffered sink absorbs it.)
				start := time.Now()
				na.Close()
				took = time.Since(start)
				held := na.Stats().Holds
				nb.Close()
				if held != 0 {
					t.Fatalf("an abandoned hold was counted as run to its due time (%d)", held)
				}
				if took < 20*time.Millisecond {
					return
				}
			}
			t.Fatalf("Close took %v with a %v hold in progress", took, delay)
		})
	}
}

// BenchmarkLinkHop is the transport's row of the per-layer ledger: one
// message's one-way trip over a loopback TCP pair — queue, writer,
// encode, flush, read, decode, event loop — lock-stepped, on an unmodified
// link and on a 200 µs one. The second row minus the first minus 200 µs
// is what the hold clock adds. The delayed row's one extra alloc/op is
// the timedMsg wrap send makes on a delayed link; the hold itself
// allocates nothing (TestHoldAllocatesNothing).
func BenchmarkLinkHop(b *testing.B) {
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		b.Run("delay="+delay.String(), func(b *testing.B) {
			at := make(sink, 1)
			na, nb := delayedPair(b, make(sink, 1), at, delay, newSleeper)
			defer na.Close()
			defer nb.Close()
			msg := any(hopMsg{Epoch: 3, Seq: 1 << 20})
			na.send(2, msg, nil) // dial outside the timed region
			at.next(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				na.send(2, msg, nil)
				<-at
			}
		})
	}
}
