package epoch

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/quorum"
)

// Verdict is Serve's ruling on an incoming request's epoch.
type Verdict int

const (
	// VerdictCurrent: epochs matched; the request was served.
	VerdictCurrent Verdict = iota
	// VerdictSenderStale: the sender's epoch is older than ours — reject
	// and push our config so it can catch up.
	VerdictSenderStale
	// VerdictSelfStale: the sender is ahead of us — we need to fetch the
	// newer config before we can serve it.
	VerdictSelfStale
)

// Store is a node's view of the epoch-versioned cluster configuration:
// a monotonic config register plus the quorum pickers derived from it.
// It is safe for concurrent use — replica fast paths gate under a read
// lock while Install (rare) takes the write lock, so a request that
// passed the gate is fully applied before any newer config is visible.
//
// The ID space is fixed for the lifetime of the store: configs may
// change members and flavor freely, but IDs never get renumbered, so
// bitsets, suspect tables and transport peer slots stay valid across
// epochs.
type Store struct {
	mu    sync.RWMutex
	space int
	cfg   Config
	cur   *Pickers
	old   *Pickers // non-nil while cfg is joint
}

// NewStore creates a store over a fixed ID space with initial installed
// at epoch 1. Epoch 0 never names a config, so it is never valid on the
// wire between stores: a frame stamped 0 is older than anything a store
// can hold and is refused as stale.
func NewStore(space int, initial Params) (*Store, error) {
	pk, err := NewPickers(space, initial)
	if err != nil {
		return nil, err
	}
	return &Store{
		space: space,
		cfg:   Config{Epoch: 1, Cur: initial},
		cur:   pk,
	}, nil
}

// Universe returns the global ID space (constant across epochs).
func (s *Store) Universe() int { return s.space }

// Epoch returns the current configuration epoch.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.Epoch
}

// Snapshot returns a copy of the current config.
func (s *Store) Snapshot() Config {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cfg := s.cfg
	if s.cfg.Old != nil {
		old := *s.cfg.Old
		cfg.Old = &old
	}
	return cfg
}

// Member reports whether id belongs to the current config (either side
// while joint).
func (s *Store) Member(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, m := range s.cfg.Cur.Members {
		if int(m) == id {
			return true
		}
	}
	if s.cfg.Old != nil {
		for _, m := range s.cfg.Old.Members {
			if int(m) == id {
				return true
			}
		}
	}
	return false
}

// Install adopts cfg if it is strictly newer than the current config;
// older or equal epochs are ignored (monotonicity is what lets configs
// be gossiped freely — redelivery and reordering are harmless). Returns
// whether the config was adopted. Structurally invalid configs error
// without changing state, so hostile wire input cannot wedge a node.
func (s *Store) Install(cfg Config) (bool, error) {
	cur, err := NewPickers(s.space, cfg.Cur)
	if err != nil {
		return false, err
	}
	var old *Pickers
	if cfg.Old != nil {
		if old, err = NewPickers(s.space, *cfg.Old); err != nil {
			return false, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cfg.Epoch <= s.cfg.Epoch {
		return false, nil
	}
	s.cfg = Config{Epoch: cfg.Epoch, Cur: cloneParams(cfg.Cur)}
	if cfg.Old != nil {
		o := cloneParams(*cfg.Old)
		s.cfg.Old = &o
	}
	s.cur, s.old = cur, old
	return true, nil
}

func cloneParams(p Params) Params {
	p.Members = append([]cluster.NodeID(nil), p.Members...)
	return p
}

// Serve runs fn under the store's read lock iff e equals the current
// epoch. Holding the lock across fn is load-bearing for reconfiguration
// safety: a request that passed the gate finishes applying before any
// Install completes, so a snapshot taken under the new epoch observes
// every write admitted under the old one.
func (s *Store) Serve(e uint64, fn func()) Verdict {
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case e == s.cfg.Epoch:
		fn()
		return VerdictCurrent
	case e < s.cfg.Epoch:
		return VerdictSenderStale
	default:
		return VerdictSelfStale
	}
}

const (
	pickRead = iota
	pickWrite
)

// pickUnion draws a quorum under the current config — at random, or with
// a non-nil cost the cheapest one (see cheapest.go). While the config is
// joint this is the two-phase handoff rule: the result is the union of a
// quorum of the new params and a quorum of the old, so concurrent
// operations across the epoch boundary still intersect.
func (s *Store) pickUnion(rng *rand.Rand, live bitset.Set, kind int, cost []time.Duration) (bitset.Set, error) {
	s.mu.RLock()
	cur, old := s.cur, s.old
	s.mu.RUnlock()
	q, err := cur.pick(rng, live, kind, cost)
	if err != nil || old == nil {
		return q, err
	}
	q2, err := old.pick(rng, live, kind, cost)
	if err != nil {
		return bitset.Set{}, err
	}
	q.UnionWith(q2)
	return q, nil
}

// pick draws one read or write quorum at random or, with a non-nil cost,
// the cheapest. A random read is a Gate.Pick on the read family alone
// (write quorums serve reads only when priced), a random write one on the
// write family, or the write sampler where the params have one.
func (p *Pickers) pick(rng *rand.Rand, live bitset.Set, kind int, cost []time.Duration) (bitset.Set, error) {
	if cost != nil {
		return p.cheapest(kind == pickRead, rng, live, cost)
	}
	dense := p.toDense(live)
	if kind == pickWrite && p.sampleWrite != nil {
		q, err := p.sampleWrite(rng, dense)
		if err != nil {
			return bitset.Set{}, err
		}
		return p.toGlobal(q), nil
	}
	g, write := p.Families()
	if kind == pickWrite {
		g = write
	}
	q := bitset.New(len(p.members))
	if !g.Pick(rng, dense, q) {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	return p.toGlobal(q), nil
}

// PickRead draws a read quorum (both-config union while joint).
func (s *Store) PickRead(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	return s.pickUnion(rng, live, pickRead, nil)
}

// PickWrite draws a write quorum (both-config union while joint).
func (s *Store) PickWrite(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	return s.pickUnion(rng, live, pickWrite, nil)
}

// PickReadCheapest picks the read quorum that is cheapest to wait for
// under cost, a per-member estimate indexed by global node ID (missing
// entries cost nothing): the cheapest row-cover or read threshold, or a
// cheaper write quorum where those pairwise intersect. While joint, the
// union of each side's cheapest.
func (s *Store) PickReadCheapest(rng *rand.Rand, live bitset.Set, cost []time.Duration) (bitset.Set, error) {
	return s.pickUnion(rng, live, pickRead, cost)
}

// PickWriteCheapest picks the write quorum that is cheapest to wait for.
func (s *Store) PickWriteCheapest(rng *rand.Rand, live bitset.Set, cost []time.Duration) (bitset.Set, error) {
	return s.pickUnion(rng, live, pickWrite, cost)
}

// CoversWrite reports whether set contains a write quorum of the current
// params — and one of the old params' too while the config is joint, the
// same both-sides rule the picks follow. It is a pure predicate (no
// random draws): a read whose quorum covers a write quorum and whose
// members all report one version has that version on a write quorum
// already, so it owes no write-back (see rkv and DESIGN.md §19).
func (s *Store) CoversWrite(set bitset.Set) bool {
	s.mu.RLock()
	cur, old := s.cur, s.old
	s.mu.RUnlock()
	return cur.CoversWrite(set) && (old == nil || old.CoversWrite(set))
}

// CoversWrite reports whether set (global IDs) contains a write quorum of
// these params: the write family's formula evaluated on set.
func (p *Pickers) CoversWrite(set bitset.Set) bool {
	_, write := p.gates()
	return write.Eval(p.toDense(set))
}

// String renders the store state for logs.
func (s *Store) String() string {
	cfg := s.Snapshot()
	if cfg.Joint() {
		return fmt.Sprintf("epoch %d (joint): %v <- %v", cfg.Epoch, cfg.Cur, *cfg.Old)
	}
	return fmt.Sprintf("epoch %d: %v", cfg.Epoch, cfg.Cur)
}
