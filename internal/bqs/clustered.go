package bqs

import (
	"fmt"
	"math"
	"math/rand"

	"hquorum/internal/bitset"
	"hquorum/internal/quorum"
)

// Clustered lifts an arbitrary (crash-model) coterie to a Byzantine quorum
// system — the hierarchical adaptation §7 of the paper anticipates. Every
// logical element of the base system becomes a cluster of m servers; a
// Byzantine quorum chooses a base quorum and any g servers from each of
// its clusters, with
//
//	dissemination: m = 3f+1, g = 2f+1  ⇒  2g−m = f+1 shared servers
//	masking:       m = 4f+1, g = 3f+1  ⇒  2g−m = 2f+1 shared servers
//
// per common cluster (and every two base quorums share a cluster). A
// cluster remains usable while at most m−g = f of its servers are faulty,
// so f global faults can never disable any cluster: availability under
// Byzantine faults equals the base coterie's fault-free availability, and
// availability under crashes is analyzed with the usual enumeration
// machinery.
//
// It is the quorum.Composite of the base with a Threshold of g out of m
// servers at every element, and answers availability and picks through it.
type Clustered struct {
	comp  *quorum.Composite
	base  quorum.System
	f     int
	class Class
	m     int // cluster size
	g     int // per-cluster quota
}

var _ System = (*Clustered)(nil)
var _ quorum.System = (*Clustered)(nil)

// NewClustered wraps base with cluster redundancy for fault bound f. It
// rejects an f whose cluster size or server count would overflow int.
func NewClustered(base quorum.System, f int, class Class) (*Clustered, error) {
	if base == nil {
		return nil, fmt.Errorf("bqs: nil base system")
	}
	if f < 0 || f > maxF {
		return nil, fmt.Errorf("bqs: fault bound %d out of range", f)
	}
	m := 3*f + 1
	if class == Masking {
		m = 4*f + 1
	}
	if base.Universe() > math.MaxInt/m {
		return nil, fmt.Errorf("bqs: %d clusters of %d servers overflow the server count", base.Universe(), m)
	}
	cluster, err := NewThreshold(m, f, class)
	if err != nil {
		return nil, err
	}
	subs := make([]quorum.System, base.Universe())
	for i := range subs {
		subs[i] = cluster
	}
	comp, err := quorum.NewComposite(base, subs)
	if err != nil {
		return nil, err
	}
	return &Clustered{comp: comp, base: base, f: f, class: class, m: m, g: cluster.MinQuorumSize()}, nil
}

// Name implements quorum.System.
func (c *Clustered) Name() string {
	return fmt.Sprintf("byz-%s(%s,f=%d)", c.class, c.base.Name(), c.f)
}

// Universe implements quorum.System.
func (c *Clustered) Universe() int { return c.comp.Universe() }

// F implements System.
func (c *Clustered) F() int { return c.f }

// Class implements System.
func (c *Clustered) Class() Class { return c.class }

// Overlap implements System.
func (c *Clustered) Overlap() int { return 2*c.g - c.m }

// ClusterSize returns the number of servers per logical element.
func (c *Clustered) ClusterSize() int { return c.m }

// Quota returns the servers required per cluster of a quorum.
func (c *Clustered) Quota() int { return c.g }

// Cluster returns the logical element that server id belongs to.
func (c *Clustered) Cluster(id int) int { return id / c.m }

// Available reports whether live contains a Byzantine quorum: a base
// quorum all of whose clusters retain their quota.
func (c *Clustered) Available(live bitset.Set) bool { return c.comp.Available(live) }

// Pick returns a random Byzantine quorum drawn from live: a base quorum
// over the clusters that retain their quota, then g random live servers
// of each of its clusters.
func (c *Clustered) Pick(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	return c.comp.Pick(rng, live)
}

// MinQuorumSize implements quorum.System.
func (c *Clustered) MinQuorumSize() int { return c.base.MinQuorumSize() * c.g }

// MaxQuorumSize implements quorum.System.
func (c *Clustered) MaxQuorumSize() int { return c.base.MaxQuorumSize() * c.g }

// ToleratesByzantine verifies by adversarial search that no placement of f
// Byzantine servers can make the system unavailable: since a cluster
// survives any ≤ f faults, it suffices that the base system is available
// with every element live — checked directly.
func (c *Clustered) ToleratesByzantine() bool {
	return c.base.Available(bitset.Universe(c.base.Universe()))
}
