// Package attempt is the one retry engine of the quorum protocols: rkv's
// client rounds, lease picks and reconfiguration waves, and dmutex's lock
// acquisitions all find a live quorum through it.
//
// An operation runs as a sequence of attempts. Each attempt picks a
// quorum among the members the node trusts and waits a patience for it;
// members that stay silent become suspects and the next attempt picks
// around them. The engine holds the four pieces every protocol shares:
//
//   - Patience: base << min(shift, 16), capped at 8×base, plus uniform
//     jitter of up to half that from the node's rng, optionally clamped to
//     the operation's deadline. The shift counts consecutive attempts whose
//     whole quorum went silent; an attempt anyone answered resets it.
//   - Suspects: the node's suspicion set, each suspicion forgotten 4×base
//     after it was recorded, with a fingerprint for pick caches.
//   - Suspects.Pick: a quorum among trusted members, else among all.
//   - Op.Diagnose: a deadline miss named quorum.ErrNoQuorum or
//     quorum.ErrDegraded.
//
// The engine knows no cluster: callers pass the time, the rng and the
// bitsets, so every protocol draws from its node's rng in the same order
// as before the engine existed.
package attempt

import (
	"math/rand"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

const (
	maxShift  = 16 // backoff doublings before the exponent stops growing
	capFactor = 8  // the backoff cap, in multiples of base
	ttlFactor = 4  // a suspicion's lifetime, in multiples of base
)

// Patience returns one attempt's timeout: base doubled shift times (at
// most 16), capped at 8×base, plus jitter drawn uniformly from [0, d/2]
// so colliding clients desynchronize. It draws from rng exactly once.
func Patience(rng *rand.Rand, base time.Duration, shift int) time.Duration {
	d := base << uint(min(shift, maxShift))
	if d <= 0 || d > capFactor*base {
		d = capFactor * base
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// Op is one operation's state across its attempts.
type Op struct {
	// Start is when the operation began; its deadline counts from here.
	Start time.Duration
	// Shift counts consecutive attempts whose whole quorum went silent.
	Shift int
	// Silent holds every member that went silent during the operation.
	// Unlike the node's suspects it never decays: it is the evidence the
	// deadline diagnosis judges.
	Silent bitset.Set
	// NoQuorum records that a pick once found no quorum among trusted
	// members and fell back to the whole universe.
	NoQuorum bool

	base, limit time.Duration
}

// NewOp returns the attempt state for operations over an ID space of
// size space, with per-attempt patience base and a deadline limit after
// each operation's start (limit <= 0: no deadline).
func NewOp(space int, base, limit time.Duration) Op {
	return Op{Silent: bitset.New(space), base: base, limit: limit}
}

// Begin starts a new operation at now.
func (o *Op) Begin(now time.Duration) {
	o.Start, o.Shift, o.NoQuorum = now, 0, false
	o.Silent.Clear()
}

// Timeout returns the next attempt's patience at o's backoff, clamped so
// the attempt ends by the operation's deadline.
func (o *Op) Timeout(rng *rand.Rand, now time.Duration) time.Duration {
	return o.Clamp(Patience(rng, o.base, o.Shift), now)
}

// Clamp bounds a wait d starting at now to the time left before o's
// deadline, and to no less than zero.
func (o *Op) Clamp(d, now time.Duration) time.Duration {
	if o.limit > 0 {
		d = min(d, o.Start+o.limit-now)
	}
	return max(d, 0)
}

// Expired reports whether o's deadline has passed at now.
func (o *Op) Expired(now time.Duration) bool {
	return o.limit > 0 && now-o.Start >= o.limit
}

// Missed records an attempt that timed out: every member of silent is
// suspected at now in s and kept in o.Silent, and the backoff grows when
// the whole quorum was silent (allSilent: the node is cut off or the
// quorum is dead, so hammering it is pointless) or resets when anyone
// answered (loss and contention are recovered by re-picking, not waiting).
func (o *Op) Missed(s *Suspects, silent bitset.Set, allSilent bool, now time.Duration) {
	if allSilent {
		o.Shift++
	} else {
		o.Shift = 0
	}
	silent.ForEach(func(m int) {
		s.Add(m, now)
		o.Silent.Add(m)
	})
}

// Diagnose names a deadline miss: quorum.ErrNoQuorum when a pick once
// found no quorum among trusted members or when every quorum pick can
// draw contains a member that went silent during the operation (the
// cumulative view: decay and the fallback both shrink the node's suspect
// set, which would under-report), quorum.ErrDegraded when a quorum of
// members that never went silent exists but the operation still ran out
// of time.
func (o *Op) Diagnose(pick func(live bitset.Set) (bitset.Set, error)) error {
	if o.NoQuorum {
		return quorum.ErrNoQuorum
	}
	if _, err := pick(o.Silent.Complement()); err != nil {
		return quorum.ErrNoQuorum
	}
	return quorum.ErrDegraded
}

// Suspects is a node's crash-suspicion set. A member is suspected when it
// stays silent through an attempt and trusted again 4×base later, so a
// crashed-then-restarted replica rejoins quorum picks without operator
// intervention.
type Suspects struct {
	set bitset.Set
	at  []time.Duration // when each suspicion was recorded
	ttl time.Duration
}

// NewSuspects returns an empty suspicion set over an ID space of size
// space whose suspicions last 4×base.
func NewSuspects(space int, base time.Duration) Suspects {
	return Suspects{set: bitset.New(space), at: make([]time.Duration, space), ttl: ttlFactor * base}
}

// Add suspects member m as of now.
func (s *Suspects) Add(m int, now time.Duration) {
	s.set.Add(m)
	s.at[m] = now
}

// Contains reports whether m is suspected.
func (s *Suspects) Contains(m int) bool { return s.set.Contains(m) }

// Count returns the number of suspects.
func (s *Suspects) Count() int { return s.set.Count() }

// Clear trusts every member again.
func (s *Suspects) Clear() { s.set.Clear() }

// Fingerprint hashes the suspect set: any Add of a new suspect, Decay
// that forgets one, or Clear changes it, so it keys caches of picks made
// around the suspects.
func (s *Suspects) Fingerprint() uint64 { return s.set.Fingerprint() }

// Decay forgets every suspicion recorded 4×base or longer before now.
func (s *Suspects) Decay(now time.Duration) {
	s.set.ForEach(func(m int) {
		if now-s.at[m] >= s.ttl {
			s.set.Remove(m)
		}
	})
}

// Pick draws a quorum with pick among the members s trusts; when they
// hold none it draws among the whole universe instead and reports
// fellBack. What a fallback means (clear the suspicions, mark the
// operation) is the caller's.
func (s *Suspects) Pick(pick func(live bitset.Set) (bitset.Set, error)) (q bitset.Set, fellBack bool, err error) {
	if q, err = pick(s.set.Complement()); err == nil {
		return q, false, nil
	}
	q, err = pick(bitset.Universe(s.set.Cap()))
	return q, true, err
}
