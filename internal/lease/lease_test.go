package lease

import (
	"testing"
	"time"

	"hquorum/internal/cluster"
)

func TestShardOf(t *testing.T) {
	for _, n := range []int{1, 3, 16, 64} {
		seen := make(map[int]bool)
		for i := 0; i < 200; i++ {
			key := string(rune('a'+i%26)) + string(rune('0'+i%10))
			s := ShardOf(key, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%q,%d) = %d out of range", key, n, s)
			}
			if s != ShardOf(key, n) {
				t.Fatalf("ShardOf not deterministic for %q", key)
			}
			seen[s] = true
		}
		if n > 1 && len(seen) < 2 {
			t.Fatalf("ShardOf(%d shards) degenerate: all keys in one shard", n)
		}
	}
}

func TestMasks(t *testing.T) {
	if MaskAll(1) != 1 {
		t.Fatalf("MaskAll(1) = %x", MaskAll(1))
	}
	if MaskAll(64) != ^uint64(0) {
		t.Fatalf("MaskAll(64) = %x", MaskAll(64))
	}
	if MaskAll(16) != 0xffff {
		t.Fatalf("MaskAll(16) = %x", MaskAll(16))
	}
	for _, k := range []string{"a", "b", "c"} {
		if m := Bit(ShardOf(k, 16)); m == 0 || m&^MaskAll(16) != 0 {
			t.Fatalf("Bit(ShardOf(%q, 16)) = %x", k, m)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Shards != 16 || c.TTL != 2*time.Second || c.Check != 500*time.Millisecond || c.MinReadFrac != 0.75 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if q := c.Quarantine(); q != c.TTL+c.TTL/8 {
		t.Fatalf("Quarantine = %v", q)
	}
	c = Config{Shards: 100}.WithDefaults()
	if c.Shards != MaxShards {
		t.Fatalf("Shards not clamped: %d", c.Shards)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable()
	e := Entry{Seq: 1, Epoch: 3, Mask: 0b1010, Shards: 4, Expiry: 100 * time.Millisecond}
	tb.Record(2, e, 0)
	tb.Record(1, Entry{Seq: 2, Epoch: 3, Mask: 0b0001, Shards: 4, Expiry: 200 * time.Millisecond}, 0)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if got := tb.Holders(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Holders = %v", got)
	}
	if g, ok := tb.Get(2); !ok || g != e {
		t.Fatalf("Get(2) = %+v %v", g, ok)
	}
	// Covered: both entries live at t=50ms; only holder 1 at t=150ms.
	if c := tb.Covered(4, 50*time.Millisecond); c != 0b1011 {
		t.Fatalf("Covered = %b", c)
	}
	if c := tb.Covered(4, 150*time.Millisecond); c != 0b0001 {
		t.Fatalf("Covered after expiry = %b", c)
	}
	// A mismatched shard-space entry conservatively covers everything.
	tb.Record(3, Entry{Mask: 1, Shards: 8, Expiry: time.Second}, 0)
	if c := tb.Covered(4, 0); c != MaskAll(4) {
		t.Fatalf("Covered with space mismatch = %b", c)
	}
	tb.Drop(3)
	// A partial re-record while the old entry is live MERGES: the mask
	// unions and the expiry keeps the later instant, so a one-shard
	// re-grant can't erase the holder's other live shards.
	tb.Record(2, Entry{Seq: 5, Epoch: 3, Mask: 0b0100, Shards: 4, Expiry: 80 * time.Millisecond}, 50*time.Millisecond)
	if g, _ := tb.Get(2); g.Mask != 0b1110 || g.Expiry != 100*time.Millisecond || g.Seq != 5 {
		t.Fatalf("live re-record did not merge: %+v", g)
	}
	// Once the old entry has expired, a re-record replaces it outright.
	tb.Record(2, Entry{Seq: 6, Epoch: 3, Mask: 0b1010, Shards: 4, Expiry: 300 * time.Millisecond}, 150*time.Millisecond)
	if g, _ := tb.Get(2); g.Mask != 0b1010 || g.Expiry != 300*time.Millisecond {
		t.Fatalf("expired re-record did not replace: %+v", g)
	}
	tb.ClearBits(2, 0b0010)
	if g, _ := tb.Get(2); g.Mask != 0b1000 {
		t.Fatalf("ClearBits left %b", g.Mask)
	}
	tb.ClearBits(2, 0b1000)
	if _, ok := tb.Get(2); ok {
		t.Fatal("entry should be dropped once empty")
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Reset left entries")
	}
}

func holderCfg() Config {
	return Config{Shards: 4, TTL: time.Second, Check: 100 * time.Millisecond, Acquire: true}.WithDefaults()
}

func TestHolderGrantLifecycle(t *testing.T) {
	h := NewHolder(holderCfg())
	members := []cluster.NodeID{1, 2}
	h.BeginWave(false, 7, 0b0011, members, 10*time.Millisecond, 5)
	if h.Idle() || h.Seq() != 7 {
		t.Fatalf("wave not started: idle=%v seq=%d", h.Idle(), h.Seq())
	}
	if r := h.OnAck(1, 7, true, 20*time.Millisecond); r != AckWait {
		t.Fatalf("first ack = %v", r)
	}
	if r := h.OnAck(1, 7, true, 21*time.Millisecond); r != AckIgnored {
		t.Fatalf("duplicate ack = %v", r)
	}
	if r := h.OnAck(3, 7, true, 21*time.Millisecond); r != AckIgnored {
		t.Fatalf("stranger ack = %v", r)
	}
	if r := h.OnAck(2, 7, true, 22*time.Millisecond); r != AckDone {
		t.Fatalf("last ack = %v", r)
	}
	// The all-acked grant waits for its transfer: still busy and
	// self-keeping, not serving, and no longer answering to the wave's
	// seq (whose timer must not abort the transfer).
	if h.Idle() || h.Seq() != 0 || !h.SelfKeepOK(0) || h.ServeOK(0, 5, 25*time.Millisecond) {
		t.Fatalf("after the last ack: idle=%v seq=%d", h.Idle(), h.Seq())
	}
	if r := h.OnAck(2, 7, true, 23*time.Millisecond); r != AckIgnored {
		t.Fatalf("ack during the transfer = %v", r)
	}
	if !h.Activate(30*time.Millisecond, 5) {
		t.Fatal("Activate refused")
	}
	if h.Active() != 0b0011 || h.Epoch() != 5 {
		t.Fatalf("active=%b epoch=%d", h.Active(), h.Epoch())
	}
	// Deadline anchors at the wave send time, not activation.
	if h.Deadline() != 10*time.Millisecond+time.Second {
		t.Fatalf("deadline = %v", h.Deadline())
	}
	if !h.ServeOK(0, 5, 500*time.Millisecond) {
		t.Fatal("ServeOK should pass inside TTL")
	}
	if h.ServeOK(2, 5, 500*time.Millisecond) {
		t.Fatal("ServeOK on unheld shard")
	}
	if h.ServeOK(0, 6, 500*time.Millisecond) {
		t.Fatal("ServeOK across epochs")
	}
	if h.ServeOK(0, 5, 2*time.Second) {
		t.Fatal("ServeOK past deadline")
	}
	if !h.SelfKeepOK(1) || h.SelfKeepOK(3) {
		t.Fatal("SelfKeepOK wrong")
	}
	// A shard still being acquired self-keeps too: the pull may already
	// have been served without the holder's in-flight write.
	h.BeginWave(false, 2, 0b1000, []cluster.NodeID{1}, 600*time.Millisecond, 5)
	if !h.SelfKeepOK(3) || h.ServeOK(3, 5, 600*time.Millisecond) {
		t.Fatal("a shard mid-grant must self-keep and must not serve")
	}
	h.Abort(700 * time.Millisecond)
	if h.SelfKeepOK(3) {
		t.Fatal("SelfKeepOK after the wave aborted")
	}
}

func TestHolderNackAbortsAndCools(t *testing.T) {
	h := NewHolder(holderCfg())
	h.BeginWave(false, 1, 0b0100, []cluster.NodeID{1, 2}, 0, 1)
	if r := h.OnAck(1, 1, false, time.Millisecond); r != AckFailed {
		t.Fatalf("nack = %v", r)
	}
	if !h.Idle() {
		t.Fatal("wave should be aborted")
	}
	// Cooled shard is not offered for one policy tick.
	if m := h.Missing(50 * time.Millisecond); m&0b0100 != 0 {
		t.Fatalf("cooled shard offered: %b", m)
	}
	if m := h.Missing(200 * time.Millisecond); m != MaskAll(4) {
		t.Fatalf("cooldown never ends: %b", m)
	}
}

func TestHolderEpochMoveRefusesActivation(t *testing.T) {
	h := NewHolder(holderCfg())
	h.BeginWave(false, 1, 0b0001, nil, 0, 3)
	if h.Activate(time.Millisecond, 4) {
		t.Fatal("activated across an epoch move")
	}
	if h.Active() != 0 {
		t.Fatal("active set changed on refused activation")
	}
}

func TestHolderInvalidateMidWave(t *testing.T) {
	h := NewHolder(holderCfg())
	h.BeginWave(false, 1, 0b0011, nil, 0, 1)
	if cleared := h.Invalidate(0b0001, time.Millisecond); cleared != 0b0001 {
		t.Fatalf("cleared = %b", cleared)
	}
	if h.Mask() != 0b0010 {
		t.Fatalf("wave mask = %b", h.Mask())
	}
	if !h.Activate(2*time.Millisecond, 1) || h.Active() != 0b0010 {
		t.Fatalf("activation after mid-wave invalidation: %b", h.Active())
	}
	// Invalidating the last wave shard leaves nothing to activate.
	h2 := NewHolder(holderCfg())
	h2.BeginWave(false, 2, 0b0001, nil, 0, 1)
	h2.Invalidate(0b0001, time.Millisecond)
	if h2.Activate(2*time.Millisecond, 1) {
		t.Fatal("activated an empty mask")
	}
}

func TestHolderRenewExtends(t *testing.T) {
	h := NewHolder(holderCfg())
	h.BeginWave(false, 1, 0b0001, nil, 0, 1)
	h.Activate(time.Millisecond, 1)
	if h.NeedRenew(100 * time.Millisecond) {
		t.Fatal("renewal window too eager")
	}
	if !h.NeedRenew(600 * time.Millisecond) {
		t.Fatal("renewal window missed")
	}
	h.BeginWave(true, 2, h.Active(), nil, 600*time.Millisecond, 1)
	if !h.Renewing() {
		t.Fatal("Renewing false")
	}
	h.CompleteRenew()
	if h.Deadline() != 1600*time.Millisecond {
		t.Fatalf("renewed deadline = %v", h.Deadline())
	}
	if h.Active() != 0b0001 {
		t.Fatalf("renewal changed active: %b", h.Active())
	}
}

func TestHolderExpireAndDrop(t *testing.T) {
	h := NewHolder(holderCfg())
	h.BeginWave(false, 1, 0b0011, nil, 0, 1)
	h.Activate(time.Millisecond, 1)
	if ex := h.ExpireTick(500 * time.Millisecond); ex != 0 {
		t.Fatalf("early expiry: %b", ex)
	}
	if ex := h.ExpireTick(1001 * time.Millisecond); ex != 0b0011 {
		t.Fatalf("expiry = %b", ex)
	}
	if h.Active() != 0 {
		t.Fatal("active after expiry")
	}

	h.BeginWave(false, 2, 0b0011, nil, 2*time.Second, 1)
	h.Activate(2001*time.Millisecond, 1)
	if dropped := h.DropAll(2100 * time.Millisecond); dropped != 0b0011 {
		t.Fatalf("DropAll = %b", dropped)
	}
	if h.Active() != 0 || !h.Idle() {
		t.Fatal("DropAll left state")
	}

	h.Reset()
	if h.Active() != 0 || !h.Idle() || h.Seq() != 0 {
		t.Fatal("Reset left state")
	}
}
