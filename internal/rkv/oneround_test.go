package rkv

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/history"
	"hquorum/internal/lease"
)

// oneRoundSim boots params' replicas plus two sessions (the two highest
// IDs, holding no data) under ReadWriteback; costAware makes the sessions
// pick by wanCost, which keeps both rounds on the 4x4 grids' top band.
func oneRoundSim(t *testing.T, seed int64, params epoch.Params, costAware bool, base Config) (s *leaseSim, a, b int) {
	t.Helper()
	m := len(params.Members)
	s = bootSim(t, seed, m+2, params, func(id int) Config {
		cfg := base
		cfg.ReadWriteback = true
		if costAware && id >= m {
			cfg.PickCost, cfg.PickSamples = wanCost(), 2
		}
		return cfg
	})
	return s, m, m + 1
}

// writeFrames counts the phase-2 frames node from has sent since mark.
func (s *leaseSim) writeFrames(from int, mark int) []simFrame {
	var out []simFrame
	for _, f := range s.p2[mark:] {
		if f.from == cluster.NodeID(from) {
			out = append(out, f)
		}
	}
	return out
}

func majority5() epoch.Params {
	return epoch.Params{Flavor: epoch.FlavorMajority, Members: epoch.MemberRange(0, 5)}
}

// TestOneRoundReadWhereQuorumCoversWrite: on a quiescent key a read whose
// quorum contains a write quorum — the cost-aware h-T-grid's top line, any
// symmetric majority, any h-triang quorum — and hears one version from all
// of it ships no write-back and completes in one round trip; on the h-grid
// and the cost-blind h-T-grid, whose reads are row-covers, the write-back
// still ships. (The random picks of the majority and the triangle need not
// be the quorum the write went to: the session's first read repairs its
// cached pick, which is what makes the key quiescent there.)
func TestOneRoundReadWhereQuorumCoversWrite(t *testing.T) {
	for _, c := range []struct {
		name      string
		params    epoch.Params
		costAware bool
		oneRound  bool
	}{
		{"h-T-grid 4x4 cost-aware", htgrid44All(), true, true},
		{"majority-5", majority5(), false, true},
		{"h-triang k=4", epoch.Params{Flavor: epoch.FlavorHTriang, Rows: 4, Members: epoch.MemberRange(0, 10)}, false, true},
		{"h-grid 4x4", hgrid44All(), false, false},
		{"h-grid 4x4 cost-aware", hgrid44All(), true, false},
		{"h-T-grid 4x4 cost-blind", htgrid44All(), false, false},
	} {
		s, writer, reader := oneRoundSim(t, 61, c.params, c.costAware, Config{})
		w := s.do(writer, Op{Kind: OpWrite, Key: "k", Value: "v1"})
		s.do(reader, Op{Kind: OpRead, Key: "k"})
		n := s.nodes[reader]
		mark, before := len(s.p2), n.OneRoundReads()
		n.profile.Reset()
		r := s.do(reader, Op{Kind: OpRead, Key: "k"})
		if r.Value != "v1" || r.Version != w.Version {
			t.Fatalf("%s: read returned %q (%v), want v1 (%v)", c.name, r.Value, r.Version, w.Version)
		}
		frames, confirmed := s.writeFrames(reader, mark), n.OneRoundReads()-before
		if c.oneRound {
			if took(r) != 1 || len(frames) != 0 || confirmed != 1 {
				t.Errorf("%s: read took %v, sent %d write-back frame(s), one_round_reads=%d; want one round trip and none",
					c.name, r.At-r.Start, len(frames), confirmed)
			}
		} else if took(r) != 2 || len(frames) == 0 || confirmed != 0 {
			t.Errorf("%s: read took %v, sent %d write-back frame(s), one_round_reads=%d; want the write-back round",
				c.name, r.At-r.Start, len(frames), confirmed)
		}
		if wl := n.Workload(s.net.Now()); c.oneRound != (wl.Spared == 1 && wl.Writebacks == 0) {
			t.Errorf("%s: profiler saw %d write-back(s) paid, %d spared", c.name, wl.Writebacks, wl.Spared)
		}
		s.checkHistory()
	}
}

// TestOneRoundReadWritesBackOnlyDisagreement: a write that reached two of
// the four line members and then stalled. A batch of eight concurrent
// reads sees the split on that key alone: it writes back only that key,
// returns the new value, and finishes the other seven after one round
// trip. A following read finds the line unanimous — the write-back put it
// there — and is one-round and returns the new value too: new-then-old,
// the inversion the write-back exists to prevent, cannot happen.
func TestOneRoundReadWritesBackOnlyDisagreement(t *testing.T) {
	s, writer, reader := oneRoundSim(t, 62, htgrid44All(), true, Config{Batch: 8})
	keys := []string{"x", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
	for _, k := range keys {
		s.do(writer, Op{Kind: OpWrite, Key: k, Value: "old"})
	}
	// The top line is {0,1,2,3}: hold the write's frames to 2 and 3.
	s.park = func(from, to cluster.NodeID, msg any) bool {
		_, p2 := msg.(msgWriteBatch)
		return p2 && from == cluster.NodeID(writer) && (to == 2 || to == 3)
	}
	stalled := s.submit(writer, Op{Kind: OpWrite, Key: "x", Value: "new"})
	s.net.Run(s.net.Now() + 2*simRTT)
	if stalled.done || len(s.parked) != 2 {
		t.Fatalf("write done=%t with %d frame(s) parked; want it stalled on two", stalled.done, len(s.parked))
	}
	mark := len(s.p2)
	var reads []*simOp
	for _, k := range keys {
		reads = append(reads, s.submit(reader, Op{Kind: OpRead, Key: k}))
	}
	s.wait(reads...)
	for i, r := range reads {
		want, rounds := "old", 1
		if i == 0 {
			want, rounds = "new", 2
		}
		if r.Value != want || took(r.Result) != rounds {
			t.Errorf("read of %q returned %q after %v, want %q after %d round trip(s)", keys[i], r.Value, r.At-r.Start, want, rounds)
		}
	}
	frames := s.writeFrames(reader, mark)
	if len(frames) != 4 {
		t.Fatalf("reader sent %d write-back frame(s), want one per line member", len(frames))
	}
	for _, f := range frames {
		if len(f.keys) != 1 || f.keys[0] != "x" {
			t.Errorf("write-back frame to %d carries %v, want only the key that disagreed", f.to, f.keys)
		}
	}
	mark = len(s.p2)
	again := s.do(reader, Op{Kind: OpRead, Key: "x"})
	if again.Value != "new" || took(again) != 1 || len(s.writeFrames(reader, mark)) != 0 {
		t.Errorf("following read returned %q after %v with %d write-back frame(s); want new, one round trip, none",
			again.Value, again.At-again.Start, len(s.writeFrames(reader, mark)))
	}
	if got := s.nodes[reader].OneRoundReads(); got != 8 {
		t.Errorf("one_round_reads = %d, want 7 of the batch and the following read", got)
	}
	s.release()
	s.wait(stalled)
	s.checkHistory()
}

// TestOneRoundReadJudgesUnanimityPerAttempt: attempt 1 hears a higher
// version from a member that then goes silent; the attempt that completes
// runs on other members, unanimous on the lower one. The remembered
// higher version keeps the read from being confirmed: it is written back
// and returned.
func TestOneRoundReadJudgesUnanimityPerAttempt(t *testing.T) {
	s, _, reader := oneRoundSim(t, 63, majority5(), false, Config{})
	low, high := Version{Counter: 1, Writer: 6}, Version{Counter: 2, Writer: 6}
	for i := 0; i < 5; i++ {
		s.nodes[i].store.apply("k", low, "v1")
	}
	s.nodes[0].store.apply("k", high, "v2") // a write that reached one replica
	// Attempt 1 runs on {0,1,2}: 3 and 4 are suspected just long enough.
	n := s.nodes[reader]
	for _, m := range []int{3, 4} {
		n.suspects.Add(m, 50*time.Millisecond-4*n.cfg.Timeout) // expires at 50ms
	}
	// 2 never hears the read; 0 answers it and crashes.
	s.park = func(from, to cluster.NodeID, msg any) bool {
		_, p1 := msg.(msgReadBatch)
		return p1 && to == 2
	}
	s.net.Schedule(simRTT*3/4, func() { s.net.Crash(0) })
	r := s.do(reader, Op{Kind: OpRead, Key: "k"})
	if r.Retries == 0 {
		t.Fatalf("read completed without a retry: the test lost its silent member")
	}
	if r.Value != "v2" || r.Version != high {
		t.Errorf("read returned %q (%v), want the higher version attempt 1 heard", r.Value, r.Version)
	}
	if n.OneRoundReads() != 0 {
		t.Errorf("read was confirmed although an earlier attempt heard a higher version")
	}
	wrote := 0
	for _, f := range s.writeFrames(reader, 0) {
		if len(f.keys) == 1 && f.keys[0] == "k" {
			wrote++
		}
	}
	if wrote < 3 {
		t.Errorf("write-back reached %d replica(s), want a write quorum", wrote)
	}
}

// TestOneRoundReadJointNeedsBothSides: while the config is joint a read's
// quorum is a union of one from each side, and it must contain a write
// quorum of each: here the new side (majority-5, whose reads cover) is
// unanimous, but the old side's read quorum (an h-grid row-cover) holds no
// full-line, so the write-back ships. After the handoff the same read is
// one round.
func TestOneRoundReadJointNeedsBothSides(t *testing.T) {
	oldP, newP := hgrid44All(), majority5()
	s, writer, reader := oneRoundSim(t, 64, oldP, false, Config{})
	s.do(writer, Op{Kind: OpWrite, Key: "k", Value: "v1"})
	install := func(cfg epoch.Config) {
		for _, st := range s.stores {
			if ok, err := st.Install(cfg); !ok || err != nil {
				t.Fatalf("install epoch %d: ok=%t err=%v", cfg.Epoch, ok, err)
			}
		}
	}
	// Every replica holds v1, so the handoff needs no state transfer.
	for _, n := range s.nodes {
		n.store.apply("k", Version{Counter: 9, Writer: 1}, "v1")
	}
	install(epoch.Config{Epoch: 2, Cur: newP, Old: &oldP})
	mark := len(s.p2)
	r := s.do(reader, Op{Kind: OpRead, Key: "k"})
	if took(r) != 2 || len(s.writeFrames(reader, mark)) == 0 || s.nodes[reader].OneRoundReads() != 0 {
		t.Errorf("joint: read took %v with %d write-back frame(s), one_round_reads=%d; want the write-back round",
			r.At-r.Start, len(s.writeFrames(reader, mark)), s.nodes[reader].OneRoundReads())
	}
	install(epoch.Config{Epoch: 3, Cur: newP})
	mark = len(s.p2)
	r = s.do(reader, Op{Kind: OpRead, Key: "k"})
	if took(r) != 1 || len(s.writeFrames(reader, mark)) != 0 || r.Value != "v1" {
		t.Errorf("after the handoff: read of %q took %v with %d write-back frame(s); want one round trip and none",
			r.Value, r.At-r.Start, len(s.writeFrames(reader, mark)))
	}
}

// rounds lists the key sets of the phase-1 attempts node from has
// launched since mark (an index into p1All), one entry per attempt.
func (s *leaseSim) rounds(from int, mark int) [][]string {
	var out [][]string
	seen := map[uint64]bool{}
	for _, f := range s.p1All[mark:] {
		if f.from == cluster.NodeID(from) && !seen[f.seq] {
			seen[f.seq] = true
			out = append(out, f.keys)
		}
	}
	return out
}

// burst submits kinds ("R"/"W") back to back on keys named after their
// position, so they are all queued when the session next fills a batch.
func (s *leaseSim) burst(id int, kinds string) []*simOp {
	var ops []*simOp
	for i, k := range kinds {
		op := Op{Kind: OpRead, Key: fmt.Sprintf("r%d", i)}
		if k == 'W' {
			op = Op{Kind: OpWrite, Key: fmt.Sprintf("w%d", i), Value: "v"}
		}
		ops = append(ops, s.submit(id, op))
	}
	return ops
}

// TestBatchesKindPureWhileReadsEndEarly: once a read pick has covered a
// write quorum the session fills a round with ops of the queue head's
// kind only — R W R W R W R at Window 1 launches as RRRR then WWW, the
// reads retiring after one round trip — with every callback fired once
// and submit order kept within a kind. Where the read pick does not cover
// (h-grid) the same queue is one mixed round, and when a suspicion moves
// the covering session's pick off the line the fill is mixed again from
// the next batch on.
func TestBatchesKindPureWhileReadsEndEarly(t *testing.T) {
	const queue = "RWRWRWR"
	for _, c := range []struct {
		name   string
		params epoch.Params
		want   []string // phase-1 key sets, in launch order
	}{
		{"h-T-grid cost-aware", htgrid44All(), []string{"[r0 r2 r4 r6]", "[w1 w3 w5]"}},
		{"h-grid cost-aware", hgrid44All(), []string{"[r0 w1 r2 w3 r4 w5 r6]"}},
	} {
		s, _, session := oneRoundSim(t, 65, c.params, true, Config{Window: 1, Batch: 8})
		s.do(session, Op{Kind: OpRead, Key: "prime"}) // establishes the read pick
		mark := len(s.p1All)
		ops := s.burst(session, queue)
		s.wait(ops...)
		if got := fmt.Sprint(s.rounds(session, mark)); got != fmt.Sprint(c.want) {
			t.Errorf("%s: rounds launched as %v, want %v", c.name, got, c.want)
		}
		if len(s.fired) != 1+len(ops) {
			t.Errorf("%s: %d callbacks for %d ops", c.name, len(s.fired), 1+len(ops))
		}
		var lastRead, lastWrite *simOp
		for _, p := range s.fired[1:] {
			prev := &lastRead
			if p.Kind != OpRead {
				prev = &lastWrite
			}
			if *prev != nil && (*prev).n > p.n {
				t.Errorf("%s: %v %q reported after a later-submitted one", c.name, p.Kind, p.Key)
			}
			*prev = p
		}
		s.checkHistory()
	}

	// A suspicion takes the top line away: with 0 and 4 suspected no line
	// lives in the near band, and the cheapest read quorum is a row-cover.
	s, _, session := oneRoundSim(t, 66, htgrid44All(), true, Config{Window: 1, Batch: 8})
	s.do(session, Op{Kind: OpRead, Key: "prime"})
	n := s.nodes[session]
	if !n.readCovers {
		t.Fatal("the cost-aware session's read pick does not cover a write quorum")
	}
	for _, m := range []int{0, 4} {
		n.suspects.Add(m, s.net.Now())
	}
	mark := len(s.p1All)
	s.wait(s.burst(session, "RW")...) // filled while the last pick still covered: pure
	if n.readCovers {
		t.Fatal("read pick still covers a write quorum with the near band's lines suspected")
	}
	s.wait(s.burst(session, "RWRW")...)
	if got, want := fmt.Sprint(s.rounds(session, mark)), "[[r0] [w1] [r0 w1 r2 w3]]"; got != want {
		t.Errorf("rounds launched as %v, want %v", got, want)
	}
}

// TestRestartedAfterEarlyReportedReads: a mixed round whose reads were
// confirmed and reported at phase 1 is cut down by a coordinator restart
// while its write is still in phase 2. The write's callback fires with
// ErrRestarted; the reads' callbacks, already fired, do not fire again.
func TestRestartedAfterEarlyReportedReads(t *testing.T) {
	s, writer, session := oneRoundSim(t, 67, htgrid44All(), true, Config{Window: 1, Batch: 8})
	s.do(writer, Op{Kind: OpWrite, Key: "a", Value: "v"})
	s.do(writer, Op{Kind: OpWrite, Key: "b", Value: "v"})
	// The session's first batch is filled before any read pick: mixed.
	calls := map[string]int{}
	var results []Result
	for _, op := range []Op{{Kind: OpRead, Key: "a"}, {Kind: OpWrite, Key: "c", Value: "w"}, {Kind: OpRead, Key: "b"}} {
		key := op.Key
		s.nodes[session].Submit(op, func(r Result) {
			calls[key]++
			results = append(results, r)
		})
	}
	s.net.Schedule(s.net.Now()+simRTT*3/2, func() {
		if calls["a"] != 1 || calls["b"] != 1 || calls["c"] != 0 {
			t.Errorf("mid-round: callbacks %v, want the two reads reported and the write in flight", calls)
		}
		s.net.Crash(cluster.NodeID(session))
		s.net.Restart(cluster.NodeID(session))
	})
	s.net.Run(s.net.Now() + 10*simRTT)
	if calls["a"] != 1 || calls["b"] != 1 || calls["c"] != 1 {
		t.Fatalf("callbacks fired %v times, want exactly once each", calls)
	}
	for _, r := range results {
		if r.Kind == OpRead && (r.Err != nil || r.Value != "v") {
			t.Errorf("read of %q: %q, %v", r.Key, r.Value, r.Err)
		}
		if r.Kind == OpWrite && !errors.Is(r.Err, ErrRestarted) {
			t.Errorf("write cut down by the restart reported %v, want ErrRestarted", r.Err)
		}
	}
}

// TestOneRoundReadCrossesLeaseBarrier: a version can reach a write quorum
// behind a lease's back (a dead coordinator's frames landing after the
// grant's pull), so a read that finds its quorum unanimous on a key under
// another node's lease still does what its write-back would: it crosses
// the invalidation barrier before returning. Once the holder has stopped
// serving the shard the same read is one round.
func TestOneRoundReadCrossesLeaseBarrier(t *testing.T) {
	s := newLeaseSim(t, 68, Config{ReadWriteback: true})
	// Every replica holds the same version — except the holder's local
	// store, which the late frames never reached.
	ver := Version{Counter: 40, Writer: 7}
	for _, n := range s.nodes[1:] {
		n.store.apply("k", ver, "late")
	}
	reader := s.nodes[3]
	reader.suspects.Add(0, s.net.Now()) // keep the reader's quorums on the replicas that agree
	r := s.do(3, Op{Kind: OpRead, Key: "k"})
	if r.Value != "late" || reader.OneRoundReads() != 0 || reader.LeaseStats().InvalRounds != 1 {
		t.Fatalf("read under a foreign lease returned %q with one_round_reads=%d inval_rounds=%d; want late, 0, 1",
			r.Value, reader.OneRoundReads(), reader.LeaseStats().InvalRounds)
	}
	if s.nodes[0].lh.ServeOK(lease.ShardOf("k", 8), s.stores[0].Epoch(), s.net.Now()) {
		t.Fatal("holder still serves the shard after the reader returned a version it does not hold")
	}
	r = s.do(3, Op{Kind: OpRead, Key: "k"})
	if r.Value != "late" || took(r) != 1 || reader.OneRoundReads() != 1 {
		t.Errorf("read after the invalidation returned %q after %v, one_round_reads=%d; want late in one round trip",
			r.Value, r.At-r.Start, reader.OneRoundReads())
	}
}

// TestOneRoundReadNeedsDurableVersions: on the disk backend a replica
// serves a write from memory as soon as it is appended, and acks it only
// after the fsync; a restart loses the tail in between. A read that finds
// its whole quorum on such a version must not take the replies for acks:
// it ships the write-back, whose acks wait for the flush, and the value it
// returned survives every replica restarting. Once the logs are synced the
// same read is one round again.
func TestOneRoundReadNeedsDurableVersions(t *testing.T) {
	root := t.TempDir()
	const replicas, writer, reader = 5, 5, 6
	s := bootSim(t, 69, replicas+2, majority5(), func(id int) Config {
		cfg := Config{ReadWriteback: true}
		if id < replicas {
			cfg.Storage, cfg.WALNoSync = "disk", true
			cfg.DataDir = filepath.Join(root, fmt.Sprintf("n%d", id))
		}
		return cfg
	})
	old := s.do(writer, Op{Kind: OpWrite, Key: "k", Value: "old"})
	s.do(reader, Op{Kind: OpRead, Key: "k"})
	n := s.nodes[reader]
	if r := s.do(reader, Op{Kind: OpRead, Key: "k"}); took(r) != 1 || n.OneRoundReads() == 0 {
		t.Fatalf("synced disk replicas: read took %v, one_round_reads=%d; want one round trip", r.At-r.Start, n.OneRoundReads())
	}
	// A write whose frames reached every replica and whose fsyncs are all
	// still owed: installed and logged, not synced, never acknowledged.
	s.hist.InvokeKeyed(s.ops, history.KindWrite, "k", "new", s.net.Now())
	s.ops++
	ver := Version{Counter: old.Version.Counter + 1, Writer: writer}
	for _, rep := range s.nodes[:replicas] {
		if !rep.applyPut("k", ver, "new") || rep.wal.Synced() {
			t.Fatalf("replica %d: could not stage an unsynced write", rep.id)
		}
	}
	mark, before := len(s.p2), n.OneRoundReads()
	r := s.do(reader, Op{Kind: OpRead, Key: "k"})
	if r.Value != "new" || took(r) != 2 || len(s.writeFrames(reader, mark)) == 0 || n.OneRoundReads() != before {
		t.Errorf("read of unsynced versions returned %q after %v with %d write-back frame(s), %d confirmed; want new after the write-back round",
			r.Value, r.At-r.Start, len(s.writeFrames(reader, mark)), n.OneRoundReads()-before)
	}
	// Power cut: what no ack covered is gone.
	for i := 0; i < replicas; i++ {
		s.net.Crash(cluster.NodeID(i))
		s.net.Restart(cluster.NodeID(i))
	}
	s.net.Run(s.net.Now() + simRTT)
	if r := s.do(reader, Op{Kind: OpRead, Key: "k"}); r.Value != "new" {
		t.Errorf("after every replica restarted a read returned %q; an earlier read had returned new", r.Value)
	}
	s.checkHistory()
}
