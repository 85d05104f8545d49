package dmutex

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/cwlog"
	"hquorum/internal/hgrid"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/majority"
	"hquorum/internal/quorum"
)

// guard asserts mutual exclusion and records entries.
type guard struct {
	t       *testing.T
	holder  cluster.NodeID
	holding bool
	entries []cluster.NodeID
}

func (g *guard) acquire(id cluster.NodeID, at time.Duration) {
	if g.holding {
		g.t.Fatalf("MUTUAL EXCLUSION VIOLATED at %v: node %d entered while node %d holds", at, id, g.holder)
	}
	g.holding = true
	g.holder = id
	g.entries = append(g.entries, id)
}

func (g *guard) release(id cluster.NodeID, at time.Duration) {
	if !g.holding || g.holder != id {
		g.t.Fatalf("release by non-holder %d at %v", id, at)
	}
	g.holding = false
}

// scenario wires a full cluster where every node requests the critical
// section count times.
type scenario struct {
	net   *cluster.Network
	nodes []*Node
	g     *guard
}

func newScenario(t *testing.T, sys quorum.System, seed int64, count int, crash []cluster.NodeID) *scenario {
	t.Helper()
	net := cluster.New(cluster.WithSeed(seed), cluster.WithLatency(time.Millisecond, 8*time.Millisecond))
	g := &guard{t: t}
	crashed := map[cluster.NodeID]bool{}
	for _, id := range crash {
		crashed[id] = true
	}
	var nodes []*Node
	for i := 0; i < sys.Universe(); i++ {
		id := cluster.NodeID(i)
		wl := Workload{Count: count, Hold: 2 * time.Millisecond, Think: 5 * time.Millisecond}
		if crashed[id] {
			wl = Workload{}
		}
		n, err := NewNode(id, Config{
			System:       sys,
			RetryTimeout: 400 * time.Millisecond,
			Workload:     wl,
			OnAcquire:    g.acquire,
			OnRelease:    g.release,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(id, n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.Start(net); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range crash {
		net.Crash(id)
	}
	return &scenario{net: net, nodes: nodes, g: g}
}

func (s *scenario) run(t *testing.T, until time.Duration) {
	t.Helper()
	s.net.Run(until)
	for _, n := range s.nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish (entries %d, retries %d)", n.id, n.Entries, n.Retries)
		}
	}
}

func TestMutualExclusionAcrossSystems(t *testing.T) {
	systems := []quorum.System{
		htriang.New(5),
		htgrid.Auto(4, 4),
		hgrid.NewRW(hgrid.Auto(3, 3)),
		majority.New(9),
		mustCW(14),
	}
	for _, sys := range systems {
		t.Run(sys.Name(), func(t *testing.T) {
			s := newScenario(t, sys, 11, 3, nil)
			s.run(t, 60*time.Second)
			want := 3 * sys.Universe()
			if len(s.g.entries) != want {
				t.Fatalf("total entries %d, want %d", len(s.g.entries), want)
			}
		})
	}
}

func mustCW(n int) quorum.System {
	s, err := cwlog.Log(n)
	if err != nil {
		panic(err)
	}
	return s
}

func TestManySeeds(t *testing.T) {
	sys := htriang.New(4)
	for seed := int64(1); seed <= 8; seed++ {
		s := newScenario(t, sys, seed, 2, nil)
		s.run(t, 60*time.Second)
	}
}

func TestCrashTolerance(t *testing.T) {
	// h-triang(5): crash three processes; plenty of quorums avoid them.
	sys := htriang.New(5)
	crash := []cluster.NodeID{0, 7, 12}
	s := newScenario(t, sys, 5, 2, crash)
	s.net.Run(120 * time.Second)
	finished := 0
	for _, n := range s.nodes {
		if n.cfg.Workload.Count > 0 && n.Done() {
			finished++
		}
	}
	if finished != 12 {
		t.Fatalf("finished %d of 12 live nodes", finished)
	}
}

func TestRetriesRecoverFromCrashedArbiters(t *testing.T) {
	// Crash nodes and verify requesters suspected them (retries happened)
	// but still completed.
	sys := htgrid.Auto(3, 3)
	crash := []cluster.NodeID{4}
	s := newScenario(t, sys, 3, 2, crash)
	s.net.Run(120 * time.Second)
	retries := 0
	for _, n := range s.nodes {
		retries += n.Retries
		if n.cfg.Workload.Count > 0 && !n.Done() {
			t.Fatalf("node %d stuck", n.id)
		}
	}
	if retries == 0 {
		t.Log("no retries needed (quorums avoided the crashed arbiter)")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []cluster.NodeID {
		s := newScenario(t, htriang.New(4), 99, 2, nil)
		s.run(t, 60*time.Second)
		return s.g.entries
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMessageEfficiency(t *testing.T) {
	// Maekawa-style locking needs a small constant times the quorum size
	// per entry: 3|Q| in the contention-free case, more under contention.
	sys := htriang.New(5)
	s := newScenario(t, sys, 17, 2, nil)
	s.run(t, 60*time.Second)
	entries := len(s.g.entries)
	perEntry := float64(s.net.Messages()) / float64(entries)
	minExpected := 3.0 * float64(sys.MinQuorumSize())
	if perEntry < minExpected-0.5 {
		t.Fatalf("messages per entry %.1f below protocol minimum %.1f", perEntry, minExpected)
	}
	if perEntry > 12*float64(sys.MaxQuorumSize()) {
		t.Fatalf("messages per entry %.1f implausibly high", perEntry)
	}
	t.Logf("entries=%d messages=%d per-entry=%.1f", entries, s.net.Messages(), perEntry)
}

func TestWaitTimesRecorded(t *testing.T) {
	s := newScenario(t, majority.New(5), 1, 2, nil)
	s.run(t, 60*time.Second)
	for _, n := range s.nodes {
		if n.Entries > 0 && n.WaitTotal <= 0 {
			t.Fatalf("node %d recorded no waiting time", n.id)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNode(0, Config{}); err == nil {
		t.Error("nil system accepted")
	}
	if _, err := NewNode(100, Config{System: majority.New(5)}); err == nil {
		t.Error("out-of-universe node accepted")
	}
	if _, err := NewNode(0, Config{System: majority.New(5), Workload: Workload{Count: -1}}); err == nil {
		t.Error("negative workload count accepted")
	}
}

func TestHighContention(t *testing.T) {
	// Zero think time maximizes contention; safety must hold and all
	// workloads complete.
	net := cluster.New(cluster.WithSeed(23), cluster.WithLatency(time.Millisecond, 4*time.Millisecond))
	g := &guard{t: t}
	sys := htgrid.Auto(3, 3)
	var nodes []*Node
	for i := 0; i < 9; i++ {
		n, err := NewNode(cluster.NodeID(i), Config{
			System:       sys,
			RetryTimeout: time.Second,
			Workload:     Workload{Count: 5, Hold: time.Millisecond, Think: 0},
			OnAcquire:    g.acquire,
			OnRelease:    g.release,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(cluster.NodeID(i), n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if err := n.Start(net); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(5 * time.Minute)
	for _, n := range nodes {
		if !n.Done() {
			t.Fatalf("node %d stuck under contention (entries %d)", n.id, n.Entries)
		}
	}
	if len(g.entries) != 45 {
		t.Fatalf("entries %d, want 45", len(g.entries))
	}
	_ = fmt.Sprintf
}

// TestReorderedLinks exercises the owed-relinquish hardening: with FIFO
// links disabled, GRANT/INQUIRE messages can cross, and safety must still
// hold.
func TestReorderedLinks(t *testing.T) {
	for seed := int64(90); seed < 110; seed++ {
		net := cluster.New(cluster.WithSeed(seed), cluster.WithFIFO(false),
			cluster.WithLatency(time.Millisecond, 8*time.Millisecond))
		g := &guard{t: t}
		sys := htriang.New(4)
		var nodes []*Node
		for i := 0; i < 10; i++ {
			n, err := NewNode(cluster.NodeID(i), Config{
				System:       sys,
				RetryTimeout: 400 * time.Millisecond,
				Workload:     Workload{Count: 2, Hold: 2 * time.Millisecond, Think: 5 * time.Millisecond},
				OnAcquire:    g.acquire,
				OnRelease:    g.release,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.AddNode(cluster.NodeID(i), n); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
			if err := n.Start(net); err != nil {
				t.Fatal(err)
			}
		}
		net.Run(2 * time.Minute)
		for _, n := range nodes {
			if !n.Done() {
				t.Fatalf("seed %d: node %d stuck", seed, n.id)
			}
		}
	}
}

// TestMessageLossRecovery pins the loss-recovery machinery (request
// supersession, stale-INQUIRE relinquish, arbiter probes) under
// deterministic 15% message loss: every workload must still complete and
// safety must hold.
func TestMessageLossRecovery(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		net := cluster.New(cluster.WithSeed(seed), cluster.WithDropRate(0.15),
			cluster.WithLatency(time.Millisecond, 6*time.Millisecond))
		g := &guard{t: t}
		sys := htriang.New(4)
		var nodes []*Node
		for i := 0; i < 10; i++ {
			n, err := NewNode(cluster.NodeID(i), Config{
				System:       sys,
				RetryTimeout: 100 * time.Millisecond,
				Workload:     Workload{Count: 2, Hold: 2 * time.Millisecond, Think: 3 * time.Millisecond},
				OnAcquire:    g.acquire,
				OnRelease:    g.release,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.AddNode(cluster.NodeID(i), n); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
			if err := n.Start(net); err != nil {
				t.Fatal(err)
			}
		}
		net.Run(5 * time.Minute)
		for _, n := range nodes {
			if !n.Done() {
				t.Fatalf("seed %d: node %d stuck under message loss (entries %d, retries %d)",
					seed, n.id, n.Entries, n.Retries)
			}
		}
		if len(g.entries) != 20 {
			t.Fatalf("seed %d: entries %d, want 20", seed, len(g.entries))
		}
	}
}

// TestCrashedHolderDoesNotWedgeCluster: a node that crashes inside the
// critical section never sends RELEASE, and every quorum intersects the
// quorum it holds — without grant reclamation the whole cluster deadlocks.
// Arbiters must reclaim the dead grantee's grant after 8×RetryTimeout of
// probe silence so everyone else still finishes.
func TestCrashedHolderDoesNotWedgeCluster(t *testing.T) {
	sys := htgrid.Auto(3, 3)
	net := cluster.New(cluster.WithSeed(33), cluster.WithLatency(time.Millisecond, 8*time.Millisecond))
	g := &guard{t: t}
	const victim = cluster.NodeID(2)
	crashed := false
	var nodes []*Node
	for i := 0; i < sys.Universe(); i++ {
		id := cluster.NodeID(i)
		n, err := NewNode(id, Config{
			System:       sys,
			RetryTimeout: 100 * time.Millisecond,
			Workload:     Workload{Count: 2, Hold: 2 * time.Millisecond, Think: 5 * time.Millisecond},
			OnAcquire: func(id cluster.NodeID, at time.Duration) {
				g.acquire(id, at)
				if id == victim && !crashed {
					crashed = true
					net.Crash(victim)
					g.holding = false // a dead holder excludes nobody
				}
			},
			OnRelease: g.release,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(id, n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.Start(net); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(2 * time.Minute)
	if !crashed {
		t.Fatal("victim never reached the critical section; pick another seed")
	}
	for _, n := range nodes {
		if n.id != victim && !n.Done() {
			t.Fatalf("node %d wedged by the crashed holder (entries %d, retries %d)",
				n.id, n.Entries, n.Retries)
		}
	}
}

// TestRestartedHolderResumesWorkload: a holder that crashes and restarts
// abandons the interrupted critical section (the history layer counts it
// as truncated) and completes the rest of its workload.
func TestRestartedHolderResumesWorkload(t *testing.T) {
	sys := htgrid.Auto(3, 3)
	net := cluster.New(cluster.WithSeed(7), cluster.WithLatency(time.Millisecond, 8*time.Millisecond))
	g := &guard{t: t}
	const victim = cluster.NodeID(4)
	crashed := false
	var nodes []*Node
	for i := 0; i < sys.Universe(); i++ {
		id := cluster.NodeID(i)
		n, err := NewNode(id, Config{
			System:       sys,
			RetryTimeout: 100 * time.Millisecond,
			Workload:     Workload{Count: 3, Hold: 2 * time.Millisecond, Think: 5 * time.Millisecond},
			OnAcquire: func(id cluster.NodeID, at time.Duration) {
				g.acquire(id, at)
				if id == victim && !crashed {
					crashed = true
					net.Crash(victim)
					g.holding = false
				}
			},
			OnRelease: g.release,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(id, n); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.Start(net); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(30 * time.Second)
	if !crashed {
		t.Fatal("victim never reached the critical section; pick another seed")
	}
	net.Restart(victim)
	net.Run(net.Now() + 2*time.Minute)
	for _, n := range nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish after restart (entries %d)", n.id, n.Entries)
		}
	}
	// The victim's interrupted acquisition is abandoned, not redone: it
	// entered once before the crash and twice after.
	if nodes[victim].Entries != 3 {
		t.Fatalf("victim entries %d, want 3", nodes[victim].Entries)
	}
}

// TestAcquireDeadlineFailsTyped: an isolated requester gives up at its
// AcquireDeadline with quorum.ErrNoQuorum (every quorum needs unreachable
// members), keeps going with the rest of its workload, and still counts as
// Done.
func TestAcquireDeadlineFailsTyped(t *testing.T) {
	sys := htgrid.Auto(3, 3)
	net := cluster.New(cluster.WithSeed(19), cluster.WithLatency(time.Millisecond, 8*time.Millisecond))
	const deadline = 3 * time.Second
	var fails []error
	var failAt []time.Duration
	n, err := NewNode(0, Config{
		System:          sys,
		RetryTimeout:    100 * time.Millisecond,
		AcquireDeadline: deadline,
		Workload:        Workload{Count: 2, Hold: 2 * time.Millisecond, Think: 5 * time.Millisecond},
		OnAcquire:       func(cluster.NodeID, time.Duration) { t.Fatal("acquired across a partition") },
		OnFail: func(_ cluster.NodeID, at time.Duration, err error) {
			fails = append(fails, err)
			failAt = append(failAt, at)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(0, n); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < sys.Universe(); i++ {
		arb, err := NewNode(cluster.NodeID(i), Config{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(cluster.NodeID(i), arb); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Start(net); err != nil {
		t.Fatal(err)
	}
	if err := net.Partition([]cluster.NodeID{0}, []cluster.NodeID{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Minute)
	if len(fails) != 2 {
		t.Fatalf("OnFail called %d times, want 2", len(fails))
	}
	for i, err := range fails {
		if !errors.Is(err, quorum.ErrNoQuorum) {
			t.Fatalf("failure %d: %v, want ErrNoQuorum", i, err)
		}
	}
	if !n.Done() {
		t.Fatal("workload not Done after deadline failures")
	}
	if took := failAt[0]; took > deadline+10*time.Millisecond {
		t.Fatalf("first failure at %v, deadline %v", took, deadline)
	}
}

// recordEnv is a cluster.Env that runs nothing: it logs every send and
// timer in call order, beside the events the node's callbacks append.
type recordEnv struct {
	id  cluster.NodeID
	rng *rand.Rand
	log []string
}

func (e *recordEnv) ID() cluster.NodeID       { return e.id }
func (e *recordEnv) Now() time.Duration       { return 0 }
func (e *recordEnv) Rand() *rand.Rand         { return e.rng }
func (e *recordEnv) After(time.Duration, any) {}
func (e *recordEnv) Send(to cluster.NodeID, msg any) {
	e.log = append(e.log, fmt.Sprintf("send %T to %d", msg, to))
}

// TestReleaseObservedBeforeReleasesSent: a holder reports leaving the
// critical section before any RELEASE leaves it. Over a real transport the
// last RELEASE can let the next holder's OnAcquire run on another goroutine
// at once, so a report after the sends could come second.
func TestReleaseObservedBeforeReleasesSent(t *testing.T) {
	env := &recordEnv{id: 0, rng: rand.New(rand.NewSource(1))}
	n, err := NewNode(0, Config{
		System:    majority.New(3),
		Workload:  Workload{Count: 1, Hold: time.Millisecond},
		OnRelease: func(cluster.NodeID, time.Duration) { env.log = append(env.log, "OnRelease") },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Timer(env, tokenStart{})
	n.req.quorum.ForEach(func(member int) {
		n.Deliver(env, cluster.NodeID(member), msgGrant{ID: n.req.id})
	})
	if !n.req.inCS {
		t.Fatal("node did not enter the critical section on its grants")
	}
	env.log = env.log[:0]
	n.Timer(env, tokenHold{ID: n.req.id})
	if len(env.log) != 1+n.req.quorum.Count() || env.log[0] != "OnRelease" {
		t.Fatalf("leaving the critical section did %q, want OnRelease before every RELEASE", env.log)
	}
}
