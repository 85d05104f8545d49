package attempt

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

const base = 100 * time.Millisecond

// TestPatienceTable: the backoff doubles from base per shift, stops at
// 8×base from shift 3 on, and stays there past the shift cap of 16 (huge
// shifts must not wrap the duration); the jitter is one Int63n(d/2+1)
// draw, so every patience lies in [d, 1.5d].
func TestPatienceTable(t *testing.T) {
	for shift := 0; shift <= 20; shift++ {
		want := base << min(shift, 3)
		for seed := int64(1); seed <= 50; seed++ {
			got := Patience(rand.New(rand.NewSource(seed)), base, shift)
			jitter := time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(want)/2 + 1))
			if got != want+jitter {
				t.Fatalf("shift %d seed %d: patience %v, want %v + %v jitter", shift, seed, got, want, jitter)
			}
			if got < want || got > want+want/2 {
				t.Fatalf("shift %d seed %d: patience %v outside [%v, %v]", shift, seed, got, want, want+want/2)
			}
		}
	}
	for _, shift := range []int{16, 17, 63, 64, 1 << 20} {
		if got, want := Patience(rand.New(rand.NewSource(3)), base, shift), Patience(rand.New(rand.NewSource(3)), base, 16); got != want {
			t.Errorf("shift %d: patience %v, want shift 16's %v", shift, got, want)
		}
	}
}

// TestPatienceSequenceUnchanged pins the patience sequence one rng yields
// for shifts 0..20 at base 100ms, seed 1. The constants were computed
// once from the three copies this engine replaced (rkv's client-round and
// reconfiguration-wave timeouts and dmutex's acquisition timeout, which
// agreed): a change here moves every chaos line.
func TestPatienceSequenceUnchanged(t *testing.T) {
	want := []time.Duration{
		107645802, 235502188, 418722916, 942008091, 895639921, 1112105549, 919483143,
		922687864, 947152349, 1141724366, 880403737, 1102409174, 1143903060, 1037101670,
		1077523356, 1026319191, 946321796, 952115421, 880484303, 813863059, 839607894,
	}
	rng := rand.New(rand.NewSource(1))
	for shift, w := range want {
		if got := Patience(rng, base, shift); got != w {
			t.Fatalf("shift %d: patience %d, want %d", shift, got, w)
		}
	}
	// Clamped to a deadline 100ms away, the same draws all end at it.
	op := NewOp(4, base, time.Second)
	op.Begin(0)
	rng = rand.New(rand.NewSource(1))
	for op.Shift = 0; op.Shift <= 4; op.Shift++ {
		if got := op.Timeout(rng, 900*time.Millisecond); got != 100*time.Millisecond {
			t.Fatalf("shift %d: clamped patience %v, want 100ms", op.Shift, got)
		}
	}
}

// TestDeadline: the clamp ends an attempt at the operation's deadline and
// never goes below zero once the deadline has passed; without a deadline
// nothing is clamped and nothing expires.
func TestDeadline(t *testing.T) {
	op := NewOp(4, base, time.Second)
	op.Begin(2 * time.Second) // deadline at 3s
	for _, c := range []struct {
		d, now, want time.Duration
	}{
		{150 * time.Millisecond, 2 * time.Second, 150 * time.Millisecond},
		{150 * time.Millisecond, 2900 * time.Millisecond, 100 * time.Millisecond},
		{150 * time.Millisecond, 3 * time.Second, 0},
		{150 * time.Millisecond, 5 * time.Second, 0},
	} {
		if got := op.Clamp(c.d, c.now); got != c.want {
			t.Errorf("Clamp(%v) at %v = %v, want %v", c.d, c.now, got, c.want)
		}
	}
	if got := op.Timeout(rand.New(rand.NewSource(1)), 4*time.Second); got != 0 {
		t.Errorf("patience past the deadline = %v, want 0", got)
	}
	if op.Expired(2999*time.Millisecond) || !op.Expired(3*time.Second) {
		t.Error("deadline must expire at exactly start+limit")
	}
	free := NewOp(4, base, 0)
	free.Begin(0)
	if got := free.Clamp(time.Hour, 10*time.Hour); got != time.Hour {
		t.Errorf("no deadline: Clamp = %v, want the wait unchanged", got)
	}
	if free.Expired(100 * time.Hour) {
		t.Error("no deadline: operation expired")
	}
}

// TestSuspectDecay: a suspicion lasts exactly 4×base (expiry uses >=);
// the fingerprint moves when a suspect is added, when one decays and on
// Clear; re-suspecting restarts the clock.
func TestSuspectDecay(t *testing.T) {
	s := NewSuspects(8, base)
	empty := s.Fingerprint()
	s.Add(3, 0)
	s.Add(5, 100*time.Millisecond)
	both := s.Fingerprint()
	if both == empty || !s.Contains(3) || !s.Contains(5) || s.Count() != 2 {
		t.Fatalf("after two Adds: count %d, fingerprint moved %t", s.Count(), both != empty)
	}
	s.Decay(399 * time.Millisecond)
	if s.Count() != 2 || s.Fingerprint() != both {
		t.Fatal("a suspicion decayed before its TTL")
	}
	s.Decay(400 * time.Millisecond)
	if s.Contains(3) || !s.Contains(5) {
		t.Fatal("suspicion of 3 not forgotten at exactly its TTL")
	}
	one := s.Fingerprint()
	if one == both || one == empty {
		t.Fatal("fingerprint unchanged by decay")
	}
	s.Add(5, 450*time.Millisecond) // re-suspected: the clock restarts
	s.Decay(500 * time.Millisecond)
	if !s.Contains(5) || s.Fingerprint() != one {
		t.Fatal("re-suspected member decayed on its first suspicion's clock")
	}
	s.Clear()
	if s.Count() != 0 || s.Fingerprint() != empty {
		t.Fatal("Clear left suspects or a stale fingerprint")
	}
}

// pickThree picks the three lowest live members of an eight-member space,
// or fails: a stand-in quorum system.
func pickThree(live bitset.Set) (bitset.Set, error) {
	idx := live.Indices()
	if len(idx) < 3 {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return bitset.FromIndices(live.Cap(), idx[:3]...), nil
}

// TestPickFallback: a pick avoids the suspects while the trusted members
// hold a quorum and falls back to the whole universe when they do not,
// leaving the suspicions for the caller to handle.
func TestPickFallback(t *testing.T) {
	s := NewSuspects(8, base)
	s.Add(0, 0)
	q, fell, err := s.Pick(pickThree)
	if err != nil || fell || !q.Equal(bitset.FromIndices(8, 1, 2, 3)) {
		t.Fatalf("trusted pick: %v fellBack=%t err=%v, want [1 2 3]", q, fell, err)
	}
	for m := 1; m < 6; m++ {
		s.Add(m, 0)
	}
	q, fell, err = s.Pick(pickThree)
	if err != nil || !fell || !q.Equal(bitset.FromIndices(8, 0, 1, 2)) {
		t.Fatalf("fallback pick: %v fellBack=%t err=%v, want [0 1 2] from the universe", q, fell, err)
	}
	if s.Count() != 6 {
		t.Fatal("the fallback cleared suspicions itself")
	}
	none := func(bitset.Set) (bitset.Set, error) { return bitset.Set{}, quorum.ErrNoQuorum }
	if _, fell, err = s.Pick(none); !fell || !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("no quorum anywhere: fellBack=%t err=%v", fell, err)
	}
}

// TestMissedAndDiagnose: a wholly silent attempt grows the backoff, an
// answered one resets it; silent members are suspected and kept for the
// diagnosis, which reports ErrNoQuorum once they break every quorum (or
// after a fallback) and ErrDegraded while a quorum of answering members
// remains.
func TestMissedAndDiagnose(t *testing.T) {
	s := NewSuspects(8, base)
	op := NewOp(8, base, time.Second)
	op.Begin(0)
	op.Missed(&s, bitset.FromIndices(8, 0, 1), true, 0)
	op.Missed(&s, bitset.FromIndices(8, 2), true, 0)
	if op.Shift != 2 || !s.Contains(2) || op.Silent.Count() != 3 {
		t.Fatalf("after two silent attempts: shift %d, silent %v", op.Shift, op.Silent)
	}
	if err := op.Diagnose(pickThree); !errors.Is(err, quorum.ErrDegraded) {
		t.Fatalf("five members never silent: %v, want ErrDegraded", err)
	}
	op.Missed(&s, bitset.FromIndices(8, 3, 4, 5), false, 0)
	if op.Shift != 0 {
		t.Fatalf("an answered attempt left shift %d", op.Shift)
	}
	s.Decay(time.Hour) // decay forgets suspects, not the operation's evidence
	if err := op.Diagnose(pickThree); !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("six of eight silent: %v, want ErrNoQuorum", err)
	}
	op.Begin(time.Second)
	if op.Shift != 0 || !op.Silent.Empty() || op.Start != time.Second {
		t.Fatal("Begin kept the previous operation's state")
	}
	op.NoQuorum = true
	if err := op.Diagnose(pickThree); !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("after a fallback: %v, want ErrNoQuorum", err)
	}
}
