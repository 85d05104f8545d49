package gateway

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/history"
	"hquorum/internal/lease"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
)

// buildCluster assembles replicas plus session nodes over one epoch
// universe: every node runs the same rkv machine, but only the replicas
// are quorum members — the sessions (IDs past the member range) are
// pure coordinators fed through Submit.
func buildCluster(t *testing.T, replicas, sessions int, initial epoch.Params, cfg rkv.Config, mods ...func(i int, c *rkv.Config)) ([]*rkv.Node, []cluster.Handler) {
	t.Helper()
	n := replicas + sessions
	nodes := make([]*rkv.Node, n)
	handlers := make([]cluster.Handler, n)
	for i := 0; i < n; i++ {
		es, err := epoch.NewStore(n, initial)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Epochs = es
		for _, mod := range mods {
			mod(i, &c)
		}
		node, err := rkv.NewNode(cluster.NodeID(i), c)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		handlers[i] = node
	}
	return nodes, handlers
}

func gridParams(replicas int, rows, cols int) epoch.Params {
	members := make([]cluster.NodeID, replicas)
	for i := range members {
		members[i] = cluster.NodeID(i)
	}
	return epoch.Params{Flavor: epoch.FlavorHGrid, Rows: rows, Cols: cols, Members: members}
}

// TestGatewayEndToEndMem runs many gateway clients against an in-process
// mesh: 8 hgrid replicas behind 2 shared sessions. Checks that writes
// land, reads observe them, and nothing errors on the healthy path.
func TestGatewayEndToEndMem(t *testing.T) {
	const replicas, sessions = 8, 2
	nodes, handlers := buildCluster(t, replicas, sessions, gridParams(replicas, 2, 4), rkv.Config{
		Timeout:       100 * time.Millisecond,
		OpDeadline:    3 * time.Second,
		ReadWriteback: true,
		Window:        8,
		Batch:         8,
		OpGap:         -1,
	})
	mesh := transport.NewMemMesh(handlers)
	defer mesh.Close()
	var sessPool []Session
	for i := replicas; i < replicas+sessions; i++ {
		i, node := i, nodes[i]
		node.SetWake(func() { mesh.Kick(i, 0, node.StartToken()) })
		sessPool = append(sessPool, node)
	}
	gw, err := Serve("127.0.0.1:0", Config{Sessions: sessPool, SessionDepth: 32, ClientQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const clients, ops = 20, 10
	var failures atomic.Uint64
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(gw.Addr())
			if err != nil {
				failures.Add(1)
				return
			}
			defer c.Close()
			for j := 0; j < ops; j++ {
				key := fmt.Sprintf("k%d", (id+j)%5)
				var err error
				if j%2 == 0 {
					_, err = c.Do(rkv.Op{Kind: rkv.OpWrite, Key: key, Value: fmt.Sprintf("c%d-%d", id, j)})
				} else {
					_, err = c.Do(rkv.Op{Kind: rkv.OpRead, Key: key})
				}
				if err != nil {
					failures.Add(1)
				}
			}
		}(id)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d operations failed on a healthy cluster", n)
	}
	// Read-your-write through the gateway.
	c, err := Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(rkv.Op{Kind: rkv.OpWrite, Key: "final", Value: "done"}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Do(rkv.Op{Kind: rkv.OpRead, Key: "final"})
	if err != nil || rep.Value != "done" {
		t.Fatalf("read-your-write got (%q, %v), want (\"done\", nil)", rep.Value, err)
	}
	if st := gw.Stats(); st.Requests < clients*ops {
		t.Fatalf("gateway saw %d requests, want at least %d", st.Requests, clients*ops)
	}
}

// TestGatewayChaosSessionCrash is the gateway chaos cell: clients run a
// keyed register workload over TCP while (a) the cluster live-migrates
// from hgrid to majority mid-run and (b) one shared session's
// coordinator is crashed with operations in flight. Every client-visible
// outcome is recorded — failures count as "maybe applied" — and the
// per-key linearizability checker must accept the history.
func TestGatewayChaosSessionCrash(t *testing.T) {
	const replicas, sessions = 8, 3
	initial := gridParams(replicas, 2, 4)
	nodes, handlers := buildCluster(t, replicas, sessions, initial, rkv.Config{
		Timeout:       150 * time.Millisecond,
		OpDeadline:    500 * time.Millisecond,
		ReadWriteback: true,
		Window:        8,
		Batch:         4,
		OpGap:         -1,
	})
	mesh, err := transport.NewMesh(handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	mesh.Start()
	var sessPool []Session
	for i := replicas; i < replicas+sessions; i++ {
		tn, node := mesh.Node(i), nodes[i]
		node.SetWake(func() { tn.Kick(0, node.StartToken()) })
		sessPool = append(sessPool, node)
	}
	gw, err := Serve("127.0.0.1:0", Config{
		Sessions:     sessPool,
		SessionDepth: 16,
		ClientQueue:  8,
		Retries:      4,
		OpTimeout:    1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	rec := history.NewRegister()
	var recMu sync.Mutex
	start := time.Now()
	var done atomic.Int64
	var reconfigOnce, crashOnce sync.Once

	const clients, ops = 24, 18
	var completed, failed atomic.Uint64
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(gw.Addr())
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			defer c.Close()
			for j := 0; j < ops; j++ {
				key := fmt.Sprintf("k%d", (id+j)%4)
				op := rkv.Op{Kind: rkv.OpRead, Key: key}
				kind := history.KindRead
				if j%3 != 0 {
					op = rkv.Op{Kind: rkv.OpWrite, Key: key, Value: fmt.Sprintf("c%d-%d", id, j)}
					kind = history.KindWrite
				}
				recMu.Lock()
				rec.InvokeKeyed(id, kind, key, op.Value, time.Since(start))
				recMu.Unlock()
				rep, err := c.Do(op)
				recMu.Lock()
				if err != nil {
					// Shed, remote failure or lost session: effects unknown —
					// the op stays pending ("maybe") for the checker.
					rec.Fail(id, time.Since(start))
					failed.Add(1)
				} else {
					order := rep.Version.Counter<<8 | uint64(rep.Version.Writer)&0xff
					rec.Complete(id, rep.Value, order, time.Since(start))
					completed.Add(1)
				}
				recMu.Unlock()
				switch n := done.Add(1); {
				case n == clients*ops/4:
					reconfigOnce.Do(func() {
						target := initial
						target.Flavor = epoch.FlavorMajority
						mesh.Node(0).Kick(0, rkv.ReconfigToken(target))
					})
				case n == clients*ops/2:
					crashOnce.Do(func() {
						// Kill the last session's coordinator outright: its event
						// loop dies with ops in flight. The gateway's watchdog must
						// fail them over (reads) or surface typed failures (writes)
						// and quarantine the session.
						mesh.Node(replicas + sessions - 1).Close()
					})
				}
			}
		}(id)
	}
	wg.Wait()

	if completed.Load() == 0 {
		t.Fatal("no operation completed")
	}
	// The crash may cost the in-flight ops of one session plus a probe or
	// two; losing more than that means failover is broken.
	if f := failed.Load(); f > clients*ops/4 {
		t.Fatalf("%d/%d operations failed — failover not working", f, clients*ops)
	}
	if err := history.CheckRegisterPerKey(rec.Ops()); err != nil {
		t.Fatalf("linearizability violation with session crash: %v", err)
	}
	t.Logf("chaos cell: %d completed, %d maybe-failed, gateway stats %+v",
		completed.Load(), failed.Load(), gw.Stats())
}

// TestGatewayLeaseLocalReads wires a leaseholder session into the pool:
// once its lease activates, the dispatcher's LeaseRouter hint must steer
// gateway reads onto it and the session must answer them from its local
// store. Writes follow the same hint (self-keep on the holder) and stay
// visible to routed reads.
func TestGatewayLeaseLocalReads(t *testing.T) {
	const replicas, sessions = 8, 2
	holderID := replicas // first session node
	nodes, handlers := buildCluster(t, replicas, sessions, gridParams(replicas, 2, 4), rkv.Config{
		Timeout:       100 * time.Millisecond,
		OpDeadline:    3 * time.Second,
		ReadWriteback: true,
		Window:        8,
		Batch:         8,
		OpGap:         -1,
	}, func(i int, c *rkv.Config) {
		if i == holderID {
			c.Lease = &lease.Config{
				Shards:      8,
				TTL:         time.Second,
				Check:       25 * time.Millisecond,
				MinOps:      0,  // always-grant: the session sees traffic only
				MinReadFrac: -1, // after the lease exists, so never gate on mix
				Acquire:     true,
			}
		}
	})
	mesh := transport.NewMemMesh(handlers)
	defer mesh.Close()
	var sessPool []Session
	for i := replicas; i < replicas+sessions; i++ {
		i, node := i, nodes[i]
		node.SetWake(func() { mesh.Kick(i, 0, node.StartToken()) })
		sessPool = append(sessPool, node)
	}
	// Arm the holder's lease policy loop (it re-arms itself from there).
	mesh.Kick(holderID, 0, rkv.LeaseToken())
	gw, err := Serve("127.0.0.1:0", Config{Sessions: sessPool, SessionDepth: 32, ClientQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	deadline := time.Now().Add(5 * time.Second)
	for nodes[holderID].LeaseStats().Grants == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lease never granted: %+v", nodes[holderID].LeaseStats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	c, err := Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const keys = 5
	for k := 0; k < keys; k++ {
		if _, err := c.Do(rkv.Op{Kind: rkv.OpWrite, Key: fmt.Sprintf("k%d", k), Value: fmt.Sprintf("v%d", k)}); err != nil {
			t.Fatalf("write k%d: %v", k, err)
		}
	}
	const reads = 100
	for j := 0; j < reads; j++ {
		key := fmt.Sprintf("k%d", j%keys)
		rep, err := c.Do(rkv.Op{Kind: rkv.OpRead, Key: key})
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if want := "v" + key[1:]; rep.Value != want {
			t.Fatalf("read %s = %q, want %q", key, rep.Value, want)
		}
	}
	// A fresh write must be visible to the very next routed read.
	if _, err := c.Do(rkv.Op{Kind: rkv.OpWrite, Key: "k0", Value: "v0'"}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Do(rkv.Op{Kind: rkv.OpRead, Key: "k0"})
	if err != nil || rep.Value != "v0'" {
		t.Fatalf("post-write read got (%q, %v), want (\"v0'\", nil)", rep.Value, err)
	}
	st := nodes[holderID].LeaseStats()
	if st.LocalReads < reads/2 {
		t.Fatalf("leaseholder served only %d of %d reads locally: %+v", st.LocalReads, reads, st)
	}
	other := nodes[holderID+1].LeaseStats()
	t.Logf("holder %+v, other session %+v, gateway %+v", st, other, gw.Stats())
}

// TestGatewayLeasedWritesFollowHolder: with two sessions in the pool and
// one of them holding the lease, every operation on a leased key — the
// writes too — must land on the holder. A write the rotation handed to
// the other session would pay an invalidation round and revoke the lease
// under the reads; at the holder it costs one round and self-keeps. So
// after concurrent clients have written and read leased keys, neither
// session has run an invalidation round and the holder is still on its
// first grant.
func TestGatewayLeasedWritesFollowHolder(t *testing.T) {
	const replicas, sessions = 8, 2
	holderID := replicas
	nodes, handlers := buildCluster(t, replicas, sessions, gridParams(replicas, 2, 4), rkv.Config{
		Timeout:       100 * time.Millisecond,
		OpDeadline:    3 * time.Second,
		ReadWriteback: true,
		Window:        8,
		Batch:         8,
		OpGap:         -1,
	}, func(i int, c *rkv.Config) {
		if i == holderID {
			// A TTL longer than the test: the grant count can only move if
			// something revokes the lease.
			c.Lease = &lease.Config{Shards: 8, TTL: 30 * time.Second, Check: 25 * time.Millisecond, MinReadFrac: -1, Acquire: true}
		}
	})
	mesh := transport.NewMemMesh(handlers)
	defer mesh.Close()
	var sessPool []Session
	for i := replicas; i < replicas+sessions; i++ {
		i, node := i, nodes[i]
		node.SetWake(func() { mesh.Kick(i, 0, node.StartToken()) })
		sessPool = append(sessPool, node)
	}
	mesh.Kick(holderID, 0, rkv.LeaseToken())
	gw, err := Serve("127.0.0.1:0", Config{Sessions: sessPool, SessionDepth: 32, ClientQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	holder, other := nodes[holderID], nodes[holderID+1]
	waitFor(t, "the lease to be advertised", func() bool { return holder.LeasedRead("k0") })
	grants := holder.LeaseStats().Grants

	const clients, rounds = 6, 20
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(gw.Addr())
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			defer c.Close()
			key := fmt.Sprintf("k%d", id)
			for j := 0; j < rounds; j++ {
				want := fmt.Sprintf("c%d-%d", id, j)
				if _, err := c.Do(rkv.Op{Kind: rkv.OpWrite, Key: key, Value: want}); err != nil {
					t.Errorf("client %d write %d: %v", id, j, err)
					return
				}
				rep, err := c.Do(rkv.Op{Kind: rkv.OpRead, Key: key})
				if err != nil || rep.Value != want {
					t.Errorf("client %d read %d got (%q, %v), want %q", id, j, rep.Value, err, want)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	hs, oth := holder.LeaseStats(), other.LeaseStats()
	if hs.InvalRounds != 0 || oth.InvalRounds != 0 {
		t.Fatalf("a leased-key write ran an invalidation round: holder %+v, other session %+v", hs, oth)
	}
	if hs.Grants != grants {
		t.Fatalf("the lease was revoked and re-granted under the reads: %d grants, was %d (%+v)", hs.Grants, grants, hs)
	}
	if hs.LocalVersions != clients*rounds || hs.LocalReads != clients*rounds {
		t.Fatalf("holder answered %d versions and %d reads locally, want %d each: %+v", hs.LocalVersions, hs.LocalReads, clients*rounds, hs)
	}
}
