package rkv

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/history"
	"hquorum/internal/lease"
)

// xferEnv records what the node under test sends, and the timers it arms.
type xferEnv struct {
	captureEnv
	to   []cluster.NodeID
	sent []any
}

func (e *xferEnv) Send(to cluster.NodeID, msg any) {
	e.to = append(e.to, to)
	e.sent = append(e.sent, msg)
}

// take returns and forgets the recipients of every sent frame of type T,
// and the last such frame.
func take[T any](e *xferEnv) (to []cluster.NodeID, last T) {
	for i, m := range e.sent {
		if f, ok := m.(T); ok {
			to, last = append(to, e.to[i]), f
		}
	}
	e.to, e.sent = nil, nil
	return to, last
}

func ids(xs ...int) []cluster.NodeID {
	out := make([]cluster.NodeID, len(xs))
	for i, x := range xs {
		out[i] = cluster.NodeID(x)
	}
	return out
}

// TestTransfer drives one state transfer on node 0 of a nine-node space
// by hand: fixed source and destination quorums, replies and acks
// delivered in ID order. Every case first delivers a pull reply and a
// write ack on a stale seq, a reply from a member the pull never asked
// and an ack from one the push never wrote to; none of them may count.
func TestTransfer(t *testing.T) {
	ver := func(c uint64, w int) Version { return Version{Counter: c, Writer: cluster.NodeID(w)} }
	in := "in"
	out := otherShardKey(in, 2)
	cases := []struct {
		name     string
		local    []item // node 0's store before the transfer
		mask     uint64 // over 2 shards; 0 means every key (Shards 1, Mask 1)
		src, dst []int  // nil src: the source holds no quorum
		replies  map[int][]item
		failSync bool // node 0's log refuses to sync: its apply is not durable
		acks     []int
		push     []item // what the push must carry; nil: no push
		silent   []int  // who the timeout must report; nil: the transfer is done
	}{
		{
			name:  "highest version wins, local seed included",
			local: []item{{"k", ver(5, 0), "local"}, {"j", ver(1, 0), "j-local"}},
			src:   []int{0, 1, 2}, dst: []int{0, 1, 3},
			replies: map[int][]item{1: {{"k", ver(3, 1), "old"}, {"m", ver(2, 1), "m1"}}, 2: {{"j", ver(2, 2), "j2"}, {"k", ver(5, 2), "higher-writer"}}},
			acks:    []int{1, 3},
			push:    []item{{"j", ver(2, 2), "j2"}, {"k", ver(5, 2), "higher-writer"}, {"m", ver(2, 1), "m1"}},
		},
		{
			name:  "the seed outside the source still counts",
			local: []item{{"k", ver(9, 0), "mine"}},
			src:   []int{1, 2, 3}, dst: []int{1, 2, 3},
			replies: map[int][]item{1: {{"k", ver(3, 1), "a"}}, 2: nil, 3: {{"k", ver(4, 3), "b"}}},
			acks:    []int{1, 2, 3},
			push:    []item{{"k", ver(9, 0), "mine"}},
		},
		{
			name:  "the mask filters the seed and the replies",
			local: []item{{in, ver(1, 0), "in1"}, {out, ver(7, 0), "out7"}},
			mask:  lease.Bit(lease.ShardOf(in, 2)),
			src:   []int{0, 1}, dst: []int{1, 2},
			replies: map[int][]item{1: {{in, ver(2, 1), "in2"}, {out, ver(9, 1), "out9"}}},
			acks:    []int{1, 2},
			push:    []item{{in, ver(2, 1), "in2"}},
		},
		{
			name: "an empty merge pushes nothing",
			src:  []int{1, 2}, dst: []int{1, 2},
			replies: map[int][]item{1: nil, 2: nil},
		},
		{
			name:  "a durable apply outside the destination counts for nothing",
			local: []item{{"k", ver(2, 0), "v"}},
			src:   []int{1}, dst: []int{1, 2, 3},
			replies: map[int][]item{1: nil},
			acks:    []int{1, 2},
			push:    []item{{"k", ver(2, 0), "v"}},
			silent:  []int{3},
		},
		{
			name:  "a failed apply inside the destination does not count",
			local: []item{{"k", ver(2, 0), "v"}},
			src:   []int{1}, dst: []int{0, 1, 2},
			replies:  map[int][]item{1: nil},
			failSync: true,
			acks:     []int{1, 2},
			push:     []item{{"k", ver(2, 0), "v"}},
			silent:   []int{0},
		},
		{
			name:  "a failed apply outside the destination fails the transfer",
			local: []item{{"k", ver(2, 0), "v"}},
			src:   []int{1}, dst: []int{1, 2, 3},
			replies:  map[int][]item{1: nil},
			failSync: true,
			acks:     []int{1, 2, 3},
			push:     []item{{"k", ver(2, 0), "v"}},
			silent:   []int{0},
		},
		{
			name:    "the pull's silent members are reported",
			local:   []item{{"k", ver(2, 0), "v"}},
			src:     []int{0, 1, 2, 3},
			replies: map[int][]item{2: {{"k", ver(3, 2), "w"}}},
			silent:  []int{1, 3},
		},
		{
			name: "a source without a quorum fails at once",
		},
	}
	errNoQuorum := errors.New("no quorum")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Epochs: testEpochs(t, 9, majority9())}
			if tc.failSync {
				cfg.Storage, cfg.DataDir = "disk", t.TempDir()
			}
			n, err := NewNode(0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range tc.local {
				n.applyPut(it.Key, it.Ver, it.Val)
			}
			if tc.failSync {
				t.Cleanup(func() { _ = n.Close() })
				n.wal.SetHook(func(point string) error {
					if point == "sync" {
						return errors.New("injected sync failure")
					}
					return nil
				})
			}
			env := &xferEnv{captureEnv: captureEnv{fakeEnv: fakeEnv{rng: rand.New(rand.NewSource(1)), now: time.Second}}}
			quorum := func(members []int) func(cluster.Env) (bitset.Set, error) {
				return func(cluster.Env) (bitset.Set, error) {
					if members == nil {
						return bitset.Set{}, errNoQuorum
					}
					return bitset.FromIndices(9, members...), nil
				}
			}
			calls := 0
			var gotSilent bitset.Set
			var gotErr error
			x := transfer{epoch: 1, mask: 1, shards: 1, src: quorum(tc.src), dst: quorum(tc.dst), timeout: time.Second,
				done: func(_ cluster.Env, silent bitset.Set, err error) { calls, gotSilent, gotErr = calls+1, silent, err }}
			if tc.mask != 0 {
				x.mask, x.shards = tc.mask, 2
			}
			n.startTransfer(env, x)
			if tc.src == nil {
				if calls != 1 || gotErr != errNoQuorum || !gotSilent.Empty() || n.xfer.seq != 0 {
					t.Fatalf("no source quorum: %d reports, err %v, silent %v", calls, gotErr, gotSilent)
				}
				return
			}

			// The pull asks the source minus node 0, with the filter.
			to, pull := take[msgPull](env)
			var asked []int
			for _, m := range tc.src {
				if m != 0 {
					asked = append(asked, m)
				}
			}
			if !slices.Equal(to, ids(asked...)) || pull.Epoch != 1 || pull.Mask != x.mask || pull.Shards != x.shards {
				t.Fatalf("pull %+v went to %v, want %v with mask %b over %d shards", pull, to, asked, x.mask, x.shards)
			}
			pullDue := env.timers[len(env.timers)-1].token
			n.Deliver(env, cluster.NodeID(asked[0]), msgPullReply{Seq: pull.Seq + 1, Items: []item{{"k", ver(99, 8), "stale seq"}}})
			n.Deliver(env, 8, msgPullReply{Seq: pull.Seq, Items: []item{{"k", ver(99, 8), "never asked"}}})
			for _, m := range asked {
				if items, ok := tc.replies[m]; ok {
					n.Deliver(env, cluster.NodeID(m), msgPullReply{Seq: pull.Seq, Items: items})
				}
			}

			// The push carries the merge to the destination minus a node 0
			// that counted itself, and the merge is in node 0's store.
			to, push := take[msgWriteBatch](env)
			if tc.push == nil && len(to) != 0 {
				t.Fatalf("pushed %v to %v, want no push", push.Items, to)
			}
			if tc.push != nil {
				if !slices.Equal(push.Items, tc.push) || push.Epoch != 1 {
					t.Fatalf("pushed %v at epoch %d, want %v", push.Items, push.Epoch, tc.push)
				}
				var written []int
				for _, m := range tc.dst {
					if m != 0 {
						written = append(written, m)
					}
				}
				if !slices.Equal(to, ids(written...)) {
					t.Fatalf("pushed to %v, want %v", to, written)
				}
				for _, it := range tc.push {
					if val, v := n.ValueKey(it.Key); val != it.Val || v != it.Ver {
						t.Fatalf("node 0 stores %q %v for %s, want the merge's %q %v", val, v, it.Key, it.Val, it.Ver)
					}
				}
				n.Timer(env, pullDue) // the pull's timer is stale now
				n.Deliver(env, cluster.NodeID(written[0]), msgWriteAck{Epoch: 1, Seq: pull.Seq})
				n.Deliver(env, 8, msgWriteAck{Epoch: 1, Seq: push.Seq})
				if calls != 0 {
					t.Fatalf("stale timer or acks ended the transfer: err %v, silent %v", gotErr, gotSilent)
				}
				for _, m := range tc.acks {
					n.Deliver(env, cluster.NodeID(m), msgWriteAck{Epoch: 1, Seq: push.Seq})
				}
			}

			if tc.silent == nil {
				if calls != 1 || gotErr != nil || n.xfer.seq != 0 {
					t.Fatalf("%d reports, err %v, silent %v; want done", calls, gotErr, gotSilent)
				}
				return
			}
			if calls != 0 {
				t.Fatalf("reported %v (silent %v) before the timeout", gotErr, gotSilent)
			}
			n.Timer(env, env.timers[len(env.timers)-1].token)
			if calls != 1 || gotErr != errTransferSilent || !slices.Equal(gotSilent.Indices(), tc.silent) || n.xfer.seq != 0 {
				t.Fatalf("timeout: %d reports, err %v, silent %v; want silent %v", calls, gotErr, gotSilent, tc.silent)
			}
		})
	}
}

// TestPullServesFilteredAtEpoch: the source side answers a pull with its
// store restricted to the requested shards, only at the request's exact
// epoch, and drops a pull whose shard width is out of range.
func TestPullServesFilteredAtEpoch(t *testing.T) {
	n, err := NewNode(1, Config{Epochs: testEpochs(t, 9, majority9())})
	if err != nil {
		t.Fatal(err)
	}
	out := otherShardKey("in", 4)
	n.applyPut("in", Version{Counter: 1}, "a")
	n.applyPut(out, Version{Counter: 2}, "b")
	env := &xferEnv{}
	n.FastDeliver(env, 0, msgPull{Epoch: 1, Seq: 3, Mask: lease.Bit(lease.ShardOf("in", 4)), Shards: 4})
	n.FastDeliver(env, 0, msgPull{Epoch: 1, Seq: 4, Mask: 1, Shards: 1})
	n.FastDeliver(env, 0, msgPull{Epoch: 1, Seq: 5, Mask: 1, Shards: lease.MaxShards + 1})
	n.FastDeliver(env, 0, msgPull{Epoch: 2, Seq: 6, Mask: 1, Shards: 1})
	if len(env.sent) != 3 {
		t.Fatalf("sent %#v, want two replies, nothing for the bad width and a config request", env.sent)
	}
	filtered, all := env.sent[0].(msgPullReply), env.sent[1].(msgPullReply)
	if filtered.Seq != 3 || len(filtered.Items) != 1 || filtered.Items[0].Key != "in" {
		t.Fatalf("filtered pull answered %+v", filtered)
	}
	if all.Seq != 4 || len(all.Items) != 2 {
		t.Fatalf("Shards 1, Mask 1 answered %+v, want every key", all)
	}
	if _, ok := env.sent[2].(msgConfigReq); !ok {
		t.Fatalf("a pull from a newer epoch answered %#v, want a config request", env.sent[2])
	}
}

// TestLeaseGrantPushesPartialWrite: a write that reached the holder and
// fewer than a write quorum — a coordinator's phase-2 frames, the
// coordinator then gone — is in the store the holder serves locally from
// once the lease is active. The grant's transfer must have pushed it to a
// write quorum: with the holder crashed right after serving it locally,
// another node's quorum read must not return anything older.
func TestLeaseGrantPushesPartialWrite(t *testing.T) {
	s := bootLeaseSim(t, 61, Config{})
	holder := s.nodes[0]
	partial := Version{Counter: 100, Writer: 7}
	// Node 7's write, recorded as the maybe-write it is.
	s.hist.InvokeKeyed(s.ops, history.KindWrite, "k", "partial", 0)
	s.hist.Fail(s.ops, 0)
	s.ops++
	holder.FastDeliver(&xferEnv{}, 7, msgWriteBatch{Epoch: 1, Seq: 1, Items: []item{{"k", partial, "partial"}}})
	s.awaitLease()
	r := s.do(0, Op{Kind: OpRead, Key: "k"})
	if holder.LeaseStats().LocalReads != 1 || r.Version != partial {
		t.Fatalf("holder read %q (%v), %d local reads; want the partial write served locally", r.Value, r.Version, holder.LeaseStats().LocalReads)
	}
	s.net.Crash(0)
	if q := s.do(2, Op{Kind: OpRead, Key: "k"}); q.Version.Less(partial) {
		t.Fatalf("quorum read after the holder served %v locally returned %q (%v)", partial, q.Value, q.Version)
	}
	s.checkHistory()
}

// TestReconfigTransferCoversNewReadQuorums: keys written under the old
// configuration, each on one of its write quorums, are held after the
// swap by a set of replicas that meets every read quorum of the new
// configuration — the transfer's push is what gets them there, since an
// old write quorum (five of nine) need not meet a new read quorum (one
// replica per row of a 3×3 h-grid).
func TestReconfigTransferCoversNewReadQuorums(t *testing.T) {
	s := bootSim(t, 62, 9, majority9(), func(int) Config { return Config{} })
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	wrote := map[string]Version{}
	for i, k := range keys {
		wrote[k] = s.do(1+i%8, Op{Kind: OpWrite, Key: k, Value: "v-" + k}).Version
	}
	target := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: 3, Cols: 3, Members: epoch.MemberRange(0, 9)}
	if err := s.net.StartTimer(4, 0, ReconfigToken(target)); err != nil {
		t.Fatal(err)
	}
	s.net.Run(s.net.Now() + 2*time.Second)
	for _, st := range s.stores {
		if snap := st.Snapshot(); snap.Epoch != 3 || !snap.Cur.Equal(target) {
			t.Fatalf("a replica runs epoch %d %v, want epoch 3 on the target", snap.Epoch, snap.Cur)
		}
	}
	newPk, err := epoch.NewPickers(9, target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range keys {
		lacking := bitset.New(9)
		for i, n := range s.nodes {
			if _, v := n.ValueKey(k); v.Less(wrote[k]) {
				lacking.Add(i)
			}
		}
		if q, err := newPk.Read(rng, lacking); err == nil {
			t.Fatalf("key %s: the new read quorum %v holds no copy of %v", k, q, wrote[k])
		}
	}
	for _, k := range keys {
		if r := s.do(5, Op{Kind: OpRead, Key: k}); r.Version != wrote[k] {
			t.Fatalf("read %s after the swap returned %q (%v), want %v", k, r.Value, r.Version, wrote[k])
		}
	}
	s.checkHistory()
}
