// Package quorum defines the core abstractions shared by every quorum-system
// construction in this repository.
//
// A quorum system over a universe of n nodes is a collection of node subsets
// (quorums) such that every two quorums intersect (Definition 3.1 of the
// paper). Constructions implement the System interface, which exposes the
// three capabilities the analysis and protocol layers need:
//
//   - an availability predicate (does a given live set contain a quorum?),
//     which drives exact failure-probability computation via transversal
//     counting (Proposition 3.1);
//   - a quorum picker, which materializes a concrete quorum from the live
//     nodes and drives the mutual-exclusion and replication protocols; and
//   - quorum-size bounds, used for the load lower bounds of Proposition 3.3.
package quorum

import (
	"errors"
	"fmt"
	"math/rand"

	"hquorum/internal/bitset"
)

// ErrNoQuorum is returned by Pick when the live set contains no quorum.
var ErrNoQuorum = errors.New("quorum: no quorum available among live nodes")

// ErrDegraded is returned by protocol operations that give up on their
// deadline while a quorum still exists among trusted (unsuspected) nodes:
// the system is structurally available but too slow or contended to finish
// in time. Contrast with ErrNoQuorum, which means every quorum of the
// configuration includes a node currently believed dead.
var ErrDegraded = errors.New("quorum: operation deadline exceeded in degraded cluster")

// System is a quorum system construction over a fixed universe.
type System interface {
	// Name identifies the construction (for tables and logs).
	Name() string
	// Universe returns the number of nodes n; nodes are indexed [0, n).
	Universe() int
	// Available reports whether live contains at least one quorum.
	// live must have capacity Universe().
	Available(live bitset.Set) bool
	// Pick returns a quorum contained in live, or ErrNoQuorum. The rng
	// drives any randomized choice; implementations must be deterministic
	// for a fixed rng stream.
	Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error)
	// MinQuorumSize and MaxQuorumSize bound the cardinality of quorums the
	// construction defines.
	MinQuorumSize() int
	MaxQuorumSize() int
}

// Enumerator is implemented by systems that can enumerate their minimal
// quorums explicitly. fn returns false to stop early.
type Enumerator interface {
	EnumerateQuorums(fn func(q bitset.Set) bool)
}

// AllQuorums collects every quorum enumerated by sys.
func AllQuorums(sys Enumerator) []bitset.Set {
	var out []bitset.Set
	sys.EnumerateQuorums(func(q bitset.Set) bool {
		out = append(out, q.Clone())
		return true
	})
	return out
}

// Coterie is an explicit quorum system: a list of quorums over a shared
// universe. It is both a reference implementation (small constructions can
// be flattened into a Coterie and checked exhaustively) and the vehicle for
// strategy/load computations that need the quorum list.
type Coterie struct {
	name    string
	n       int
	quorums []bitset.Set
}

// NewCoterie builds a Coterie from explicit quorums. It does not validate;
// call Validate for the intersection property.
func NewCoterie(name string, n int, quorums []bitset.Set) *Coterie {
	return &Coterie{name: name, n: n, quorums: quorums}
}

// FromSystem flattens an enumerable system into an explicit Coterie.
func FromSystem(sys System) (*Coterie, error) {
	e, ok := sys.(Enumerator)
	if !ok {
		return nil, fmt.Errorf("quorum: %s cannot enumerate quorums", sys.Name())
	}
	return NewCoterie(sys.Name(), sys.Universe(), AllQuorums(e)), nil
}

// Name returns the coterie's label.
func (c *Coterie) Name() string { return c.name }

// Universe returns the number of nodes.
func (c *Coterie) Universe() int { return c.n }

// Quorums returns the underlying quorum list (not a copy).
func (c *Coterie) Quorums() []bitset.Set { return c.quorums }

// Len returns the number of quorums.
func (c *Coterie) Len() int { return len(c.quorums) }

// Validate checks Definition 3.1: the system is nonempty, every quorum is a
// nonempty subset of the universe, and every pair of quorums intersects.
func (c *Coterie) Validate() error {
	if len(c.quorums) == 0 {
		return errors.New("quorum: empty quorum system")
	}
	for i, q := range c.quorums {
		if q.Cap() != c.n {
			return fmt.Errorf("quorum: quorum %d capacity %d != universe %d", i, q.Cap(), c.n)
		}
		if q.Empty() {
			return fmt.Errorf("quorum: quorum %d is empty", i)
		}
	}
	for i := range c.quorums {
		for j := i + 1; j < len(c.quorums); j++ {
			if !c.quorums[i].Intersects(c.quorums[j]) {
				return fmt.Errorf("quorum: quorums %d=%v and %d=%v do not intersect",
					i, c.quorums[i], j, c.quorums[j])
			}
		}
	}
	return nil
}

// IsCoterie reports whether no quorum contains another (minimality, the
// coterie condition of Definition 3.1).
func (c *Coterie) IsCoterie() bool {
	for i := range c.quorums {
		for j := range c.quorums {
			if i != j && c.quorums[i].SubsetOf(c.quorums[j]) {
				return false
			}
		}
	}
	return true
}

// Reduce returns a new Coterie with dominated (superset) and duplicate
// quorums removed, preserving availability.
func (c *Coterie) Reduce() *Coterie {
	keep := make([]bitset.Set, 0, len(c.quorums))
	for i, q := range c.quorums {
		dominated := false
		for j, r := range c.quorums {
			if i == j {
				continue
			}
			if r.SubsetOf(q) && (!q.SubsetOf(r) || j < i) {
				// r is a strict subset, or an equal quorum seen earlier.
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, q)
		}
	}
	return NewCoterie(c.name, c.n, keep)
}

// Available reports whether live contains at least one quorum.
func (c *Coterie) Available(live bitset.Set) bool {
	for _, q := range c.quorums {
		if q.SubsetOf(live) {
			return true
		}
	}
	return false
}

// Pick returns a uniformly random quorum contained in live.
func (c *Coterie) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	candidates := make([]int, 0, len(c.quorums))
	for i, q := range c.quorums {
		if q.SubsetOf(live) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return bitset.Set{}, ErrNoQuorum
	}
	return c.quorums[candidates[rng.Intn(len(candidates))]].Clone(), nil
}

// EnumerateQuorums implements Enumerator.
func (c *Coterie) EnumerateQuorums(fn func(q bitset.Set) bool) {
	for _, q := range c.quorums {
		if !fn(q) {
			return
		}
	}
}

// MinQuorumSize returns the cardinality of the smallest quorum, c(S) in
// Proposition 3.3.
func (c *Coterie) MinQuorumSize() int {
	min := c.n + 1
	for _, q := range c.quorums {
		if s := q.Count(); s < min {
			min = s
		}
	}
	if min > c.n {
		return 0
	}
	return min
}

// MaxQuorumSize returns the cardinality of the largest quorum.
func (c *Coterie) MaxQuorumSize() int {
	max := 0
	for _, q := range c.quorums {
		if s := q.Count(); s > max {
			max = s
		}
	}
	return max
}

var _ System = (*Coterie)(nil)
var _ Enumerator = (*Coterie)(nil)

// CheckPairwiseIntersection verifies the intersection property of an
// enumerable system directly, returning the first violating pair.
func CheckPairwiseIntersection(sys Enumerator) error {
	all := AllQuorums(sys)
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if !all[i].Intersects(all[j]) {
				return fmt.Errorf("quorum: quorums %v and %v do not intersect", all[i], all[j])
			}
		}
	}
	return nil
}

// CheckAvailabilityConsistency cross-checks a system's Available predicate
// against its enumerated quorum list on every subset of a small universe
// (n <= 24). It returns an error naming the first inconsistent live set.
func CheckAvailabilityConsistency(sys System) error {
	e, ok := sys.(Enumerator)
	if !ok {
		return fmt.Errorf("quorum: %s cannot enumerate quorums", sys.Name())
	}
	n := sys.Universe()
	if n > 24 {
		return fmt.Errorf("quorum: universe %d too large for exhaustive check", n)
	}
	// holds[mask]: mask contains an enumerated quorum — the quorums,
	// closed upwards one process at a time.
	holds := make([]bool, 1<<uint(n))
	for _, q := range AllQuorums(e) {
		holds[q.Word()] = true
	}
	for i := 0; i < n; i++ {
		for mask := range holds {
			if holds[mask] {
				holds[mask|1<<uint(i)] = true
			}
		}
	}
	live := bitset.New(n)
	for mask, want := range holds {
		live.SetWord(uint64(mask))
		if got := sys.Available(live); got != want {
			return fmt.Errorf("quorum: %s Available(%v) = %t, enumeration says %t",
				sys.Name(), live, got, want)
		}
	}
	return nil
}

// CheckPickConsistency verifies, over trials random live sets, that Pick
// returns a quorum subset of live exactly when Available(live) is true, and
// that the returned set really is a quorum (it must intersect every quorum
// of the system when the system is enumerable).
func CheckPickConsistency(sys System, rng *rand.Rand, trials int) error {
	n := sys.Universe()
	var all []bitset.Set
	if e, ok := sys.(Enumerator); ok {
		all = AllQuorums(e)
	}
	for t := 0; t < trials; t++ {
		live := bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(100) < 70 {
				live.Add(i)
			}
		}
		q, err := sys.Pick(rng, live)
		avail := sys.Available(live)
		switch {
		case err == nil && !avail:
			return fmt.Errorf("quorum: Pick succeeded on unavailable live set %v", live)
		case err != nil && avail:
			return fmt.Errorf("quorum: Pick failed on available live set %v: %v", live, err)
		case err != nil:
			continue
		}
		if !q.SubsetOf(live) {
			return fmt.Errorf("quorum: picked quorum %v not within live %v", q, live)
		}
		for _, other := range all {
			if !q.Intersects(other) {
				return fmt.Errorf("quorum: picked set %v misses quorum %v", q, other)
			}
		}
	}
	return nil
}
