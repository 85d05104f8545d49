package rkv

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/htgrid"
	"hquorum/internal/quorum"
)

// testEpochs builds one node's epoch store: p over the ID space
// [0, space). Every test node gets its own, as every process does.
func testEpochs(t testing.TB, space int, p epoch.Params) *epoch.Store {
	t.Helper()
	st, err := epoch.NewStore(space, p)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// harness wires a 16-replica h-grid cluster; ops are assigned per node.
type harness struct {
	t       *testing.T
	net     *cluster.Network
	nodes   []*Node
	results []Result
}

func newHarness(t *testing.T, seed int64, ops map[cluster.NodeID][]Op, crash []cluster.NodeID) *harness {
	t.Helper()
	return newHarnessCfg(t, seed, Config{}, ops, crash)
}

// newHarnessCfg is newHarness with a Config template (the harness fills
// in Epochs). Every node's ops are submitted in sequence (submitSeq).
func newHarnessCfg(t *testing.T, seed int64, base Config, ops map[cluster.NodeID][]Op, crash []cluster.NodeID) *harness {
	t.Helper()
	h := &harness{t: t, net: cluster.New(cluster.WithSeed(seed), cluster.WithLatency(time.Millisecond, 6*time.Millisecond))}
	for i := 0; i < 16; i++ {
		id := cluster.NodeID(i)
		cfg := base
		cfg.Epochs = testEpochs(t, 16, hgrid44All())
		n, err := NewNode(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.net.AddNode(id, n); err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, n)
	}
	submitAll(t, h.net, h.nodes, 0, ops, &h.results)
	for _, id := range crash {
		h.net.Crash(id)
	}
	return h
}

// wakeOn wires n for Submit on the sim: the wake schedules the node's
// start token as an immediate timer, which the sim delivers whether it is
// issued before Run or from inside a callback.
func wakeOn(net *cluster.Network, n *Node) {
	n.SetWake(func() { net.StartTimer(n.id, 0, n.StartToken()) })
}

// submitSeq submits ops on n one at a time, the next one gap after the
// previous op's callback — Submit's sequential contract, so nothing the
// node may reorder among queued ops (lease admission, kind-pure batches)
// can change what a test sees — and appends every result to *out.
func submitSeq(net *cluster.Network, n *Node, gap time.Duration, out *[]Result, ops ...Op) {
	if len(ops) == 0 {
		return
	}
	n.Submit(ops[0], func(r Result) {
		*out = append(*out, r)
		if gap <= 0 {
			submitSeq(net, n, gap, out, ops[1:]...)
			return
		}
		net.Schedule(net.Now()+gap, func() { submitSeq(net, n, gap, out, ops[1:]...) })
	})
}

// submitAll starts every node, wires its wake, and submits each node's
// ops in sequence (submitSeq, gap apart), nodes in ID order.
func submitAll(t testing.TB, net *cluster.Network, nodes []*Node, gap time.Duration, ops map[cluster.NodeID][]Op, out *[]Result) {
	t.Helper()
	for _, n := range nodes {
		if err := n.Start(net); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		wakeOn(net, n)
		submitSeq(net, n, gap, out, ops[cluster.NodeID(i)]...)
	}
}

// submit runs ops on node id in sequence (submitSeq).
func (h *harness) submit(id cluster.NodeID, ops ...Op) {
	submitSeq(h.net, h.nodes[id], 0, &h.results, ops...)
}

// burst submits ops on node id all at once, so the node's window and
// batches see them queued together. Results land in h.results as their
// callbacks fire and in the returned slots in submission order.
func (h *harness) burst(id cluster.NodeID, ops ...Op) []*Result {
	out := make([]*Result, len(ops))
	for i, op := range ops {
		h.nodes[id].Submit(op, func(r Result) {
			if out[i] != nil {
				h.t.Errorf("op %d answered twice", i)
			}
			out[i] = &r
			h.results = append(h.results, r)
		})
	}
	return out
}

func (h *harness) run(t *testing.T, until time.Duration) {
	t.Helper()
	h.net.Run(until)
	for _, n := range h.nodes {
		if !n.Done() {
			t.Fatalf("node %d did not finish its ops", n.id)
		}
	}
}

func TestReadAfterWrite(t *testing.T) {
	// Node 0 writes, then node 15 reads: the read must observe the write
	// (ops are sequenced by giving the reader a later start via op order on
	// the same node).
	h := newHarness(t, 1, map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "v1"}, {Kind: OpRead}},
	}, nil)
	h.run(t, 30*time.Second)
	if len(h.results) != 2 {
		t.Fatalf("results %d, want 2", len(h.results))
	}
	if h.results[1].Kind != OpRead || h.results[1].Value != "v1" {
		t.Fatalf("read returned %q (version %+v), want v1", h.results[1].Value, h.results[1].Version)
	}
}

func TestReadAfterWriteAcrossNodes(t *testing.T) {
	// Writer and reader on different nodes; the reader starts after the
	// writer finishes (sequenced by the test driving two phases).
	ops := map[cluster.NodeID][]Op{0: {{Kind: OpWrite, Value: "cross"}}}
	h := newHarness(t, 2, ops, nil)
	h.run(t, 30*time.Second)

	// Second phase: a read from node 15 on the same cluster.
	h.submit(15, Op{Kind: OpRead})
	h.run(t, 60*time.Second)
	last := h.results[len(h.results)-1]
	if last.Kind != OpRead || last.Value != "cross" {
		t.Fatalf("cross-node read returned %q, want cross", last.Value)
	}
}

func TestSequentialWritesMonotone(t *testing.T) {
	h := newHarness(t, 3, map[cluster.NodeID][]Op{
		4: {
			{Kind: OpWrite, Value: "a"},
			{Kind: OpWrite, Value: "b"},
			{Kind: OpRead},
			{Kind: OpWrite, Value: "c"},
			{Kind: OpRead},
		},
	}, nil)
	h.run(t, 60*time.Second)
	if len(h.results) != 5 {
		t.Fatalf("results %d", len(h.results))
	}
	if h.results[2].Value != "b" {
		t.Fatalf("first read %q, want b", h.results[2].Value)
	}
	if h.results[4].Value != "c" {
		t.Fatalf("second read %q, want c", h.results[4].Value)
	}
	// Versions strictly increase across the writes.
	if !h.results[0].Version.Less(h.results[1].Version) || !h.results[1].Version.Less(h.results[3].Version) {
		t.Fatalf("versions not monotone: %+v %+v %+v",
			h.results[0].Version, h.results[1].Version, h.results[3].Version)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	// Two concurrent read-write writers; afterwards every reader must agree
	// on a single winner.
	h := newHarness(t, 4, map[cluster.NodeID][]Op{
		1: {{Kind: OpWrite, Value: "from-1"}},
		9: {{Kind: OpWrite, Value: "from-9"}},
	}, nil)
	h.run(t, 30*time.Second)

	for _, reader := range []cluster.NodeID{0, 5, 15} {
		h.submit(reader, Op{Kind: OpRead})
	}
	h.run(t, 60*time.Second)
	reads := h.results[2:]
	if len(reads) != 3 {
		t.Fatalf("reads %d", len(reads))
	}
	for _, r := range reads {
		if r.Value != reads[0].Value {
			t.Fatalf("readers disagree: %q vs %q", r.Value, reads[0].Value)
		}
		if r.Value != "from-1" && r.Value != "from-9" {
			t.Fatalf("unexpected winner %q", r.Value)
		}
	}
}

func TestBlindWriteConvergence(t *testing.T) {
	h := newHarness(t, 5, map[cluster.NodeID][]Op{
		2:  {{Kind: OpBlindWrite, Value: "b1"}},
		11: {{Kind: OpBlindWrite, Value: "b2"}},
	}, nil)
	h.run(t, 30*time.Second)
	h.submit(7, Op{Kind: OpRead})
	h.run(t, 60*time.Second)
	last := h.results[len(h.results)-1]
	if last.Value != "b1" && last.Value != "b2" {
		t.Fatalf("read returned %q after blind writes", last.Value)
	}
}

func TestCrashToleranceWithRetries(t *testing.T) {
	// Crash three replicas; reads and writes must still complete (possibly
	// with retries) and read-after-write must hold.
	crash := []cluster.NodeID{1, 6, 11}
	h := newHarness(t, 6, map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "survivor"}, {Kind: OpRead}},
	}, crash)
	h.net.Run(2 * time.Minute)
	if !h.nodes[0].Done() {
		t.Fatal("client did not finish under crashes")
	}
	last := h.results[len(h.results)-1]
	if last.Value != "survivor" {
		t.Fatalf("read returned %q, want survivor", last.Value)
	}
}

func TestReadCheaperThanWrite(t *testing.T) {
	// A read contacts a row-cover (4 replicas on the 4×4 grid); a
	// read-write contacts a row-cover plus a full-line. Compare message
	// counts of one op each.
	hRead := newHarness(t, 7, map[cluster.NodeID][]Op{3: {{Kind: OpRead}}}, nil)
	hRead.run(t, 30*time.Second)
	readMsgs := hRead.net.Messages()

	hWrite := newHarness(t, 7, map[cluster.NodeID][]Op{3: {{Kind: OpWrite, Value: "x"}}}, nil)
	hWrite.run(t, 30*time.Second)
	writeMsgs := hWrite.net.Messages()

	if readMsgs >= writeMsgs {
		t.Fatalf("read used %d messages, write %d; read should be cheaper", readMsgs, writeMsgs)
	}
	if readMsgs != 8 { // 4 queries + 4 replies
		t.Fatalf("read used %d messages, want 8", readMsgs)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewNode(0, Config{}); !errors.Is(err, ErrNoEpochs) {
		t.Errorf("config without an epoch store: err = %v, want ErrNoEpochs", err)
	}
	grid22 := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 2, Cols: 2, Members: epoch.MemberRange(0, 4)}
	if _, err := NewNode(99, Config{Epochs: testEpochs(t, 4, grid22)}); err == nil {
		t.Error("out-of-universe node accepted")
	}
}

func TestVersionOrdering(t *testing.T) {
	a := Version{Counter: 1, Writer: 3}
	b := Version{Counter: 2, Writer: 0}
	c := Version{Counter: 2, Writer: 5}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("version ordering broken")
	}
	if fmt.Sprintf("%v", OpRead) != "read" || fmt.Sprintf("%v", OpBlindWrite) != "blind-write" {
		t.Fatal("OpKind.String broken")
	}
}

// TestHTGridStoreCrossIntersection: §4.2's refinement — every h-T-grid
// write quorum intersects every row-cover read quorum, exhaustively on a
// small hierarchy.
func TestHTGridStoreCrossIntersection(t *testing.T) {
	sys := htgrid.Auto(3, 3)
	covers := sys.Hierarchy().RowCovers()
	sys.EnumerateQuorums(func(w bitset.Set) bool {
		for _, r := range covers {
			if !w.Intersects(r) {
				t.Fatalf("write quorum %v misses read quorum %v", w, r)
				return false
			}
		}
		return true
	})
}

// TestHTGridStoreEndToEnd: the register works with h-T-grid writes, and
// exclusive writes are cheaper than with the h-grid store (the h-T-grid
// quorum replaces the read-quorum + full-line pair).
func TestHTGridStoreEndToEnd(t *testing.T) {
	run := func(p epoch.Params) (uint64, string) {
		net := cluster.New(cluster.WithSeed(8))
		var results []Result
		var replicas []*Node
		for i := 0; i < 16; i++ {
			r, err := NewNode(cluster.NodeID(i), Config{Epochs: testEpochs(t, 16, p)})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.AddNode(cluster.NodeID(i), r); err != nil {
				t.Fatal(err)
			}
			replicas = append(replicas, r)
		}
		submitAll(t, net, replicas, 0, map[cluster.NodeID][]Op{
			0: {{Kind: OpBlindWrite, Value: "fast"}, {Kind: OpRead}},
		}, &results)
		net.Run(30 * time.Second)
		if len(results) != 2 {
			t.Fatalf("results %d", len(results))
		}
		return net.Messages(), results[1].Value
	}
	htgrid44 := hgrid44All()
	htgrid44.Flavor = epoch.FlavorHTGrid
	_, hv := run(hgrid44All())
	_, tv := run(htgrid44)
	if hv != "fast" || tv != "fast" {
		t.Fatalf("reads returned %q / %q", hv, tv)
	}
}

func TestMajorityStore(t *testing.T) {
	maj5 := func(r, w int) epoch.Params {
		return epoch.Params{Flavor: epoch.FlavorMajority, R: r, W: w, Members: epoch.MemberRange(0, 5)}
	}
	if _, err := epoch.NewStore(5, maj5(2, 3)); err == nil {
		t.Error("R+W <= n accepted")
	}
	if _, err := epoch.NewStore(5, maj5(3, 2)); err == nil {
		t.Error("2W <= n accepted")
	}
	if _, err := epoch.NewStore(0, epoch.Params{Flavor: epoch.FlavorMajority, R: 1, W: 1}); err == nil {
		t.Error("empty universe accepted")
	}
	net := cluster.New(cluster.WithSeed(10))
	var results []Result
	var replicas []*Node
	for i := 0; i < 5; i++ {
		r, err := NewNode(cluster.NodeID(i), Config{Epochs: testEpochs(t, 5, maj5(3, 3))})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(cluster.NodeID(i), r); err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	submitAll(t, net, replicas, 0, map[cluster.NodeID][]Op{
		2: {{Kind: OpWrite, Value: "maj"}, {Kind: OpRead}},
	}, &results)
	net.Run(30 * time.Second)
	if len(results) != 2 || results[1].Value != "maj" {
		t.Fatalf("results %+v", results)
	}
}

// TestPartitionHealing: a partition that separates the client from its
// quorums stalls operations; healing lets retries complete, and the read
// still observes the pre-partition write.
func TestPartitionHealing(t *testing.T) {
	h := newHarness(t, 12, map[cluster.NodeID][]Op{
		0: {{Kind: OpWrite, Value: "before"}, {Kind: OpRead}},
	}, nil)
	h.run(t, 30*time.Second)

	// Cut node 15 off from everyone else and ask it to read.
	h.net.Partition([]cluster.NodeID{15})
	reader := h.nodes[15]
	h.submit(15, Op{Kind: OpRead})
	h.net.Run(35 * time.Second)
	if reader.Done() {
		t.Fatal("read completed across a partition")
	}

	// Heal; retries must finish the read with the committed value.
	h.net.Heal()
	h.net.Run(5 * time.Minute)
	if !reader.Done() {
		t.Fatal("read did not complete after healing")
	}
	last := h.results[len(h.results)-1]
	if last.Value != "before" {
		t.Fatalf("post-heal read returned %q", last.Value)
	}
	if last.Retries == 0 {
		t.Fatal("expected retries across the partition")
	}
}

// TestWriteNoQuorumAcrossFullLinePartition is the graceful-degradation
// acceptance scenario: a partition that cuts column 0 off isolates every
// full-line (each one needs a column-0 cell), so a majority-side Write
// must give up with quorum.ErrNoQuorum within its OpDeadline instead of
// hanging — while reads keep working — and after Heal a retried Write
// succeeds without any operator intervention.
func TestWriteNoQuorumAcrossFullLinePartition(t *testing.T) {
	const deadline = 5 * time.Second
	base := Config{Timeout: 100 * time.Millisecond, OpDeadline: deadline}
	h := newHarnessCfg(t, 31, base, nil, nil)

	col0 := []cluster.NodeID{0, 4, 8, 12}
	rest := []cluster.NodeID{1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15}

	// Premise check: without column 0 there is no write quorum, but read
	// quorums survive.
	majority := bitset.Universe(16)
	for _, id := range col0 {
		majority.Remove(int(id))
	}
	store := testEpochs(t, 16, hgrid44All())
	rng := rand.New(rand.NewSource(1))
	if _, err := store.PickWrite(rng, majority); err == nil {
		t.Fatal("a full-line avoids column 0; the partition premise is broken")
	}
	if _, err := store.PickRead(rng, majority); err != nil {
		t.Fatalf("no row-cover in the majority side: %v", err)
	}

	if err := h.net.Partition(col0, rest); err != nil {
		t.Fatal(err)
	}
	h.submit(5, Op{Kind: OpWrite, Value: "cut"}, Op{Kind: OpRead})
	h.net.Run(30 * time.Second)

	if len(h.results) != 2 {
		t.Fatalf("results %d, want failed write + read", len(h.results))
	}
	res := h.results[0]
	if !errors.Is(res.Err, quorum.ErrNoQuorum) {
		t.Fatalf("partitioned write returned %v, want ErrNoQuorum", res.Err)
	}
	if took := res.At - res.Start; took > deadline+10*time.Millisecond {
		t.Fatalf("write gave up after %v, deadline %v", took, deadline)
	}
	if h.results[1].Err != nil {
		t.Fatalf("majority-side read failed during partition: %v", h.results[1].Err)
	}

	// Heal and retry: the client recovers on its own.
	h.net.Heal()
	h.submit(5, Op{Kind: OpWrite, Value: "healed"}, Op{Kind: OpRead})
	h.net.Run(h.net.Now() + time.Minute)
	if len(h.results) != 4 {
		t.Fatalf("results %d, want 4", len(h.results))
	}
	if err := h.results[2].Err; err != nil {
		t.Fatalf("post-heal write failed: %v", err)
	}
	if got := h.results[3]; got.Err != nil || got.Value != "healed" {
		t.Fatalf("post-heal read got %q (err %v), want healed", got.Value, got.Err)
	}
}

// TestDeadlineErrorDiagnosis: an isolated client whose deadline expires
// after a single attempt cannot tell dead replicas from a slow network and
// reports ErrDegraded; with room to exhaust every quorum it reports
// ErrNoQuorum.
func TestDeadlineErrorDiagnosis(t *testing.T) {
	run := func(deadline time.Duration, seed int64) error {
		base := Config{Timeout: 50 * time.Millisecond, OpDeadline: deadline}
		h := newHarnessCfg(t, seed, base, nil, nil)
		if err := h.net.Partition([]cluster.NodeID{15}, []cluster.NodeID{
			0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
		}); err != nil {
			t.Fatal(err)
		}
		h.submit(15, Op{Kind: OpRead})
		h.net.Run(time.Minute)
		if len(h.results) != 1 {
			t.Fatalf("results %d, want 1", len(h.results))
		}
		return h.results[0].Err
	}
	// One attempt's worth of evidence: only the picked quorum is suspect,
	// other quorums might still answer — degraded, not partitioned.
	if err := run(20*time.Millisecond, 41); !errors.Is(err, quorum.ErrDegraded) {
		t.Fatalf("single-attempt deadline returned %v, want ErrDegraded", err)
	}
	// Two seconds of retries exhausts every row-cover: no quorum.
	if err := run(2*time.Second, 42); !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("exhaustive retries returned %v, want ErrNoQuorum", err)
	}
}

// TestReadWritebackMonotone: with a partially-applied write staged on one
// replica, plain reads can observe the new value and then flip back to the
// old one (read inversion); ABD-style write-back makes the read sequence
// monotone because a read completes only after installing what it saw on a
// full write quorum.
func TestReadWritebackMonotone(t *testing.T) {
	const reads = 12
	runSeq := func(seed int64, writeback bool) []string {
		h := newHarnessCfg(t, seed, Config{ReadWriteback: writeback}, nil, nil)
		// Stage: everyone holds "base", but one replica saw a newer write
		// that never reached a full quorum (its writer crashed mid-write).
		for _, n := range h.nodes {
			n.store.apply("", Version{Counter: 1, Writer: 2}, "base")
		}
		h.nodes[0].store.apply("", Version{Counter: 2, Writer: 3}, "staged")
		// The pick cache would pin one row-cover for the whole read
		// sequence, hiding the inversion this test stages; clear it before
		// every read so each draws a fresh quorum like independent clients
		// would.
		reader := h.nodes[15]
		var out []string
		var next func()
		next = func() {
			if len(out) == reads {
				return
			}
			reader.invalidatePicks()
			reader.Submit(Op{Kind: OpRead}, func(r Result) {
				out = append(out, r.Value)
				next()
			})
		}
		next()
		h.net.Run(time.Minute)
		return out
	}
	monotone := func(seq []string) bool {
		sawStaged := false
		for _, v := range seq {
			if v == "staged" {
				sawStaged = true
			} else if sawStaged {
				return false
			}
		}
		return true
	}

	inverted, transitions := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		plain := runSeq(seed, false)
		wb := runSeq(seed, true)
		if len(plain) != reads || len(wb) != reads {
			t.Fatalf("seed %d: %d/%d reads completed", seed, len(plain), len(wb))
		}
		if !monotone(plain) {
			inverted++
		}
		if !monotone(wb) {
			t.Fatalf("seed %d: write-back reads not monotone: %v", seed, wb)
		}
		if wb[0] == "base" && wb[reads-1] == "staged" {
			transitions++
		}
	}
	if inverted == 0 {
		t.Fatal("no seed exhibited read inversion without write-back; staging is wrong")
	}
	if transitions == 0 {
		t.Fatal("no write-back run ever observed the staged value; staging is wrong")
	}
}

// TestSuspectDecayReadmitsRestartedReplica: suspicions age out after
// 4×Timeout, so a crashed-then-restarted replica rejoins quorum picks
// without operator intervention.
func TestSuspectDecayReadmitsRestartedReplica(t *testing.T) {
	var ops []Op
	for i := 0; i < 6; i++ {
		ops = append(ops, Op{Kind: OpWrite, Value: fmt.Sprintf("a%d", i)})
	}
	h := newHarnessCfg(t, 17, Config{Timeout: 100 * time.Millisecond}, map[cluster.NodeID][]Op{1: ops}, []cluster.NodeID{5})
	h.run(t, 30*time.Second)
	client, restarted := h.nodes[1], h.nodes[5]
	if !client.suspects.Contains(5) {
		t.Fatal("crashed replica never suspected; pick a different seed")
	}
	h.net.Restart(5)
	// Let the suspicion age well past its 400ms TTL, then write more.
	h.net.Run(h.net.Now() + 2*time.Second)
	var more []Op
	for i := 0; i < 6; i++ {
		more = append(more, Op{Kind: OpWrite, Value: fmt.Sprintf("b%d", i)})
	}
	h.submit(1, more...)
	h.run(t, h.net.Now()+30*time.Second)
	for _, r := range h.results {
		if r.Err != nil {
			t.Fatalf("write failed: %v", r.Err)
		}
	}
	if client.suspects.Contains(5) {
		t.Fatal("suspicion of the restarted replica never decayed")
	}
	if _, ver := restarted.Value(); ver.Counter == 0 {
		t.Fatal("restarted replica never rejoined a write quorum")
	}
}

// TestWindowPipelining: with Window > 1 and no op gap a node keeps several
// submitted operations in flight at once; all complete exactly once, and
// at least some genuinely overlapped.
func TestWindowPipelining(t *testing.T) {
	const nOps = 12
	ops := make([]Op, nOps)
	for i := range ops {
		if i%3 == 2 {
			ops[i] = Op{Kind: OpRead}
		} else {
			ops[i] = Op{Kind: OpWrite, Value: fmt.Sprintf("w%d", i)}
		}
	}
	base := Config{Window: 4, OpGap: -1}
	h := newHarnessCfg(t, 51, base, nil, nil)
	got := h.burst(3, ops...)
	h.run(t, time.Minute)

	if len(h.results) != nOps {
		t.Fatalf("results %d, want %d", len(h.results), nOps)
	}
	for i, r := range got {
		if r == nil {
			t.Fatalf("op %d never completed", i)
		}
	}
	overlaps := 0
	for i, r := range h.results {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
		// r overlapped with any other op whose window intersects r's.
		for j, o := range h.results {
			if j != i && o.Start < r.At && r.Start < o.At {
				overlaps++
				break
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("window=4 produced no overlapping operations")
	}
	// Writes all landed: a final read observes the highest-version write.
	h.submit(9, Op{Kind: OpRead})
	h.run(t, h.net.Now()+time.Minute)
	last := h.results[len(h.results)-1]
	if last.Value == "" {
		t.Fatalf("final read observed nothing: %+v", last)
	}
}

// TestWindowOneStaysSequential: the default window executes queued
// operations strictly one at a time — no operation starts before its
// predecessor finishes, and callbacks fire in submission order.
func TestWindowOneStaysSequential(t *testing.T) {
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: OpWrite, Value: fmt.Sprintf("s%d", i)}
	}
	h := newHarness(t, 52, nil, nil)
	h.burst(6, ops...)
	h.run(t, time.Minute)
	if len(h.results) != len(ops) {
		t.Fatalf("results %d", len(h.results))
	}
	for i, r := range h.results {
		if r.Value != ops[i].Value {
			t.Fatalf("callback %d reported write %q; window=1 must answer in submission order", i, r.Value)
		}
		if i > 0 && r.Start < h.results[i-1].At {
			t.Fatalf("op %d started before op %d completed", i, i-1)
		}
	}
}

// TestOpGapFillsWindow: a positive OpGap only pauses between a finished
// round and the next launch. A burst's one wake fills the whole window
// at once — four rounds in flight before the gap's first tick, not one
// round per tick — and every op still completes.
func TestOpGapFillsWindow(t *testing.T) {
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: OpWrite, Value: fmt.Sprintf("g%d", i)}
	}
	h := newHarnessCfg(t, 54, Config{Window: 4, OpGap: time.Millisecond}, nil, nil)
	h.burst(0, ops...)
	// Phase-1 messages take ≥1ms in the harness sim: at 500µs no round
	// has finished and the gap has not ticked once.
	h.net.Run(500 * time.Microsecond)
	if got := h.nodes[0].Inflight(); got != 4 {
		t.Fatalf("%d rounds in flight before the first gap tick, want the full window of 4", got)
	}
	h.run(t, time.Minute)
	if len(h.results) != len(ops) {
		t.Fatalf("results %d, want %d", len(h.results), len(ops))
	}
	for i, r := range h.results {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
}

// TestWindowPipeliningUnderCrashes: pipelined operations still finish (or
// fail with typed errors) when replicas crash mid-window.
func TestWindowPipeliningUnderCrashes(t *testing.T) {
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Kind: OpWrite, Value: fmt.Sprintf("c%d", i)}
	}
	base := Config{Window: 5, OpGap: -1, Timeout: 100 * time.Millisecond}
	h := newHarnessCfg(t, 53, base, nil, []cluster.NodeID{2, 7})
	h.burst(0, ops...)
	h.net.Run(2 * time.Minute)
	if !h.nodes[0].Done() {
		t.Fatal("pipelined client did not finish under crashes")
	}
	if len(h.results) != len(ops) {
		t.Fatalf("results %d", len(h.results))
	}
	for i, r := range h.results {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
}

// fakeEnv is a minimal cluster.Env for benchmarking node internals.
type fakeEnv struct {
	rng *rand.Rand
	now time.Duration
}

func (e *fakeEnv) ID() cluster.NodeID               { return 0 }
func (e *fakeEnv) Now() time.Duration               { return e.now }
func (e *fakeEnv) Send(to cluster.NodeID, msg any)  {}
func (e *fakeEnv) After(d time.Duration, token any) {}
func (e *fakeEnv) Rand() *rand.Rand                 { return e.rng }

// TestPickCacheInvalidation: cache hits return the same quorum; a new
// suspicion forces a fresh pick that avoids the suspect.
func TestPickCacheInvalidation(t *testing.T) {
	n, err := NewNode(0, Config{Epochs: testEpochs(t, 16, hgrid44All())})
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{rng: rand.New(rand.NewSource(9))}
	a, b := n.getOp(), n.getOp()
	if err := n.pickQuorum(env, a, true); err != nil {
		t.Fatal(err)
	}
	if err := n.pickQuorum(env, b, true); err != nil {
		t.Fatal(err)
	}
	if !a.quorum.Equal(b.quorum) {
		t.Fatalf("cache miss on unchanged view: %v vs %v", a.quorum, b.quorum)
	}
	// Suspect a member of the cached quorum: the next pick must avoid it.
	victim := a.quorum.Indices()[0]
	n.suspects.Add(victim, env.Now())
	if err := n.pickQuorum(env, b, true); err != nil {
		t.Fatal(err)
	}
	if b.quorum.Contains(victim) {
		t.Fatalf("pick after suspicion still contains suspect %d", victim)
	}
	// And the refreshed pick is cached again under the new fingerprint.
	if err := n.pickQuorum(env, a, true); err != nil {
		t.Fatal(err)
	}
	if !a.quorum.Equal(b.quorum) {
		t.Fatal("refreshed pick was not cached")
	}
}

// BenchmarkPickQuorum measures the cached against the uncached pick path
// (the cache cleared before every pick); the cache hit must be
// allocation-free (run with -benchmem).
func BenchmarkPickQuorum(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			n, err := NewNode(0, Config{Epochs: testEpochs(b, 16, hgrid44All())})
			if err != nil {
				b.Fatal(err)
			}
			env := &fakeEnv{rng: rand.New(rand.NewSource(9))}
			op := n.getOp()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !cached {
					n.invalidatePicks()
				}
				if err := n.pickQuorum(env, op, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
