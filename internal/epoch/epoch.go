// Package epoch makes the cluster's configuration — membership plus
// quorum flavor — a first-class, versioned value instead of an implicit
// constant baked in at process start.
//
// A Config carries a monotonically increasing epoch number, the current
// Params (quorum flavor, grid shape, member set) and, during a
// reconfiguration, the previous Params. The two-phase handoff rule is
// encoded directly in the pickers: while a Config is joint (Old != nil),
// every quorum pick returns the union of a quorum of the old
// configuration and a quorum of the new one, so any operation completed
// during the transition intersects both worlds and linearizability is
// preserved across the swap (the same joint-consensus idea as Raft
// membership changes, specialized to quorum intersection).
//
// The Store is the per-node home of the current Config: replicas gate
// incoming requests on epoch equality (Serve), clients and coordinators
// install newer configs as they learn them (Install, strictly monotonic),
// and protocol picks route through the store so an installed config takes
// effect on the very next quorum draw.
//
// Node identity is global and stable: Params.Members lists global node
// IDs out of a fixed ID space, and the grid/triangle constructions are
// built over the dense index space 0..len(Members)-1 with picks mapped
// back to global IDs. Growing or shrinking the cluster changes Members,
// never the meaning of an ID.
package epoch

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/hgrid"
	"hquorum/internal/htgrid"
	"hquorum/internal/htriang"
	"hquorum/internal/quorum"
)

// ErrStaleEpoch reports an operation rejected because it was issued under
// an older configuration epoch than the receiver's. The issuer is expected
// to install the newer config (replicas attach it to the rejection) and
// retry under it.
var ErrStaleEpoch = errors.New("epoch: request from a stale configuration epoch")

// Flavor names a quorum construction a cluster can run.
type Flavor uint8

// The live-path constructions (the analysis layer knows many more; these
// are the ones the replicated store can be configured with).
const (
	FlavorMajority Flavor = iota
	FlavorHGrid
	FlavorHTGrid
	FlavorHTriang
	FlavorHMaj
)

// String implements fmt.Stringer.
func (f Flavor) String() string {
	switch f {
	case FlavorMajority:
		return "majority"
	case FlavorHGrid:
		return "hgrid"
	case FlavorHTGrid:
		return "htgrid"
	case FlavorHTriang:
		return "htriang"
	case FlavorHMaj:
		return "hmaj"
	default:
		return fmt.Sprintf("flavor(%d)", uint8(f))
	}
}

// ParseFlavor parses a flavor name as spelled by String (the -store flag
// vocabulary of kvd, loadgen and quorumctl).
func ParseFlavor(s string) (Flavor, error) {
	switch s {
	case "majority":
		return FlavorMajority, nil
	case "hgrid":
		return FlavorHGrid, nil
	case "htgrid":
		return FlavorHTGrid, nil
	case "htriang":
		return FlavorHTriang, nil
	case "hmaj":
		return FlavorHMaj, nil
	default:
		return 0, fmt.Errorf("epoch: unknown flavor %q (want majority|hgrid|htgrid|htriang|hmaj)", s)
	}
}

// Params is one configuration the cluster can run: a quorum flavor, its
// shape, and the member set as global node IDs (sorted, no duplicates).
// For the grid flavors Rows×Cols must equal len(Members); for htriang
// Rows is the triangle's k (len(Members) = k(k+1)/2, Cols unused); for
// majority the shape is ignored.
//
// Read and write quorums may be asymmetric. The grid flavors are
// structurally asymmetric (row-cover reads vs full-line writes); the
// threshold flavors declare it explicitly:
//
//   - majority: R and W are Gifford vote thresholds. Zero means the
//     legacy symmetric majority (R = W = n/2+1); otherwise construction
//     requires R+W > n (every read sees the latest write) and 2W > n
//     (writes order totally).
//   - hmaj: hierarchical quorum consensus over a uniform tree of degree
//     Rows with len(RL) levels (Rows^len(RL) == len(Members)). Level i
//     needs RL[i] of a node's children for a read and WL[i] for a write,
//     with RL[i]+WL[i] > degree and 2*WL[i] > degree per level — the
//     per-level intersection recurses to a common leaf, so read and
//     write quorums of sizes ∏RL[i] and ∏WL[i] always intersect.
type Params struct {
	Flavor     Flavor
	Rows, Cols int
	// R, W are the majority flavor's read/write vote thresholds
	// (0 = symmetric n/2+1). Zero for every other flavor.
	R, W int
	// RL, WL are the hmaj flavor's per-level read/write thresholds,
	// root first. Empty for every other flavor.
	RL, WL  []int
	Members []cluster.NodeID
}

// MemberRange returns the member list [lo, hi).
func MemberRange(lo, hi int) []cluster.NodeID {
	out := make([]cluster.NodeID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, cluster.NodeID(i))
	}
	return out
}

// ParseMembers parses a member spec like "0-8" or "0-3,6,9-11" into a
// sorted member list.
func ParseMembers(spec string) ([]cluster.NodeID, error) {
	var out []cluster.NodeID
	seen := make(map[int]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi := 0, 0
		if dash := strings.IndexByte(part, '-'); dash >= 0 {
			a, err1 := strconv.Atoi(part[:dash])
			b, err2 := strconv.Atoi(part[dash+1:])
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("epoch: bad member range %q", part)
			}
			lo, hi = a, b
		} else {
			v, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("epoch: bad member %q", part)
			}
			lo, hi = v, v
		}
		for i := lo; i <= hi; i++ {
			if i < 0 {
				return nil, fmt.Errorf("epoch: negative member %d", i)
			}
			if !seen[i] {
				seen[i] = true
				out = append(out, cluster.NodeID(i))
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("epoch: empty member spec %q", spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Validate checks the params against a global ID space: members sorted,
// unique, inside [0, space), and counted to match the flavor's shape.
func (p Params) Validate(space int) error {
	if len(p.Members) == 0 {
		return fmt.Errorf("epoch: params have no members")
	}
	for i, id := range p.Members {
		if int(id) < 0 || int(id) >= space {
			return fmt.Errorf("epoch: member %d outside ID space %d", id, space)
		}
		if i > 0 && p.Members[i-1] >= id {
			return fmt.Errorf("epoch: members not sorted/unique at index %d", i)
		}
	}
	m := len(p.Members)
	if p.Flavor != FlavorMajority && (p.R != 0 || p.W != 0) {
		return fmt.Errorf("epoch: %v params carry majority thresholds R=%d W=%d", p.Flavor, p.R, p.W)
	}
	if p.Flavor != FlavorHMaj && (len(p.RL) != 0 || len(p.WL) != 0) {
		return fmt.Errorf("epoch: %v params carry hmaj level thresholds", p.Flavor)
	}
	switch p.Flavor {
	case FlavorMajority:
		// Any member count works. Explicit thresholds must keep the two
		// intersection properties the replicated register relies on:
		// R+W > n (reads see the latest write) and 2W > n (writes see
		// each other, so version counters advance monotonically).
		if p.R != 0 || p.W != 0 {
			if p.R < 1 || p.R > m || p.W < 1 || p.W > m {
				return fmt.Errorf("epoch: majority thresholds R=%d W=%d outside 1..%d", p.R, p.W, m)
			}
			if p.R+p.W <= m {
				return fmt.Errorf("epoch: majority thresholds R=%d W=%d don't intersect (R+W <= %d)", p.R, p.W, m)
			}
			if 2*p.W <= m {
				return fmt.Errorf("epoch: majority write threshold W=%d doesn't self-intersect (2W <= %d)", p.W, m)
			}
		}
	case FlavorHGrid, FlavorHTGrid:
		if p.Rows < 1 || p.Cols < 1 || p.Rows*p.Cols != m {
			return fmt.Errorf("epoch: %v needs rows*cols == members (%dx%d vs %d)", p.Flavor, p.Rows, p.Cols, m)
		}
	case FlavorHTriang:
		k := p.Rows
		if k < 1 || k*(k+1)/2 != m {
			return fmt.Errorf("epoch: htriang k=%d needs k(k+1)/2 == members (%d)", k, m)
		}
	case FlavorHMaj:
		d := p.Rows
		if d < 2 {
			return fmt.Errorf("epoch: hmaj degree %d (want >= 2)", d)
		}
		levels := len(p.RL)
		if levels < 1 || len(p.WL) != levels {
			return fmt.Errorf("epoch: hmaj needs matching per-level thresholds (len RL=%d WL=%d)", len(p.RL), len(p.WL))
		}
		leaves := 1
		for i := 0; i < levels; i++ {
			if leaves > m {
				break
			}
			leaves *= d
		}
		if leaves != m {
			return fmt.Errorf("epoch: hmaj degree %d with %d levels needs %d members, have %d", d, levels, leaves, m)
		}
		for i := range p.RL {
			r, w := p.RL[i], p.WL[i]
			if r < 1 || r > d || w < 1 || w > d {
				return fmt.Errorf("epoch: hmaj level %d thresholds r=%d w=%d outside 1..%d", i, r, w, d)
			}
			if r+w <= d {
				return fmt.Errorf("epoch: hmaj level %d thresholds r=%d w=%d don't intersect (r+w <= %d)", i, r, w, d)
			}
			if 2*w <= d {
				return fmt.Errorf("epoch: hmaj level %d write threshold w=%d doesn't self-intersect (2w <= %d)", i, w, d)
			}
		}
	default:
		return fmt.Errorf("epoch: unknown flavor %d", p.Flavor)
	}
	return nil
}

// Equal reports whether two params describe the same configuration.
func (p Params) Equal(o Params) bool {
	if p.Flavor != o.Flavor || p.Rows != o.Rows || p.Cols != o.Cols ||
		p.R != o.R || p.W != o.W ||
		len(p.RL) != len(o.RL) || len(p.WL) != len(o.WL) || len(p.Members) != len(o.Members) {
		return false
	}
	for i, v := range p.RL {
		if o.RL[i] != v {
			return false
		}
	}
	for i, v := range p.WL {
		if o.WL[i] != v {
			return false
		}
	}
	for i, id := range p.Members {
		if o.Members[i] != id {
			return false
		}
	}
	return true
}

// String renders the params for logs: "hgrid 4x4 over 16 members".
func (p Params) String() string {
	switch p.Flavor {
	case FlavorHTriang:
		return fmt.Sprintf("htriang k=%d over %d members", p.Rows, len(p.Members))
	case FlavorMajority:
		if p.R != 0 || p.W != 0 {
			return fmt.Sprintf("majority r=%d w=%d over %d members", p.R, p.W, len(p.Members))
		}
		return fmt.Sprintf("majority over %d members", len(p.Members))
	case FlavorHMaj:
		return fmt.Sprintf("hmaj d=%d r=%v w=%v over %d members", p.Rows, p.RL, p.WL, len(p.Members))
	default:
		return fmt.Sprintf("%v %dx%d over %d members", p.Flavor, p.Rows, p.Cols, len(p.Members))
	}
}

// Encode appends the params' wire form (varint fields) to b.
func (p Params) Encode(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(p.Flavor))
	b = codec.AppendUvarint(b, uint64(p.Rows))
	b = codec.AppendUvarint(b, uint64(p.Cols))
	b = codec.AppendUvarint(b, uint64(p.R))
	b = codec.AppendUvarint(b, uint64(p.W))
	b = codec.AppendUvarint(b, uint64(len(p.RL)))
	for _, v := range p.RL {
		b = codec.AppendUvarint(b, uint64(v))
	}
	b = codec.AppendUvarint(b, uint64(len(p.WL)))
	for _, v := range p.WL {
		b = codec.AppendUvarint(b, uint64(v))
	}
	b = codec.AppendUvarint(b, uint64(len(p.Members)))
	for _, id := range p.Members {
		b = codec.AppendUvarint(b, uint64(id))
	}
	return b
}

// readParams decodes one Params from r, guarding every count against
// hostile inputs (every counted element costs at least one wire byte, so a
// count exceeding the bytes left is an attack, not a config).
func readParams(r *codec.Reader) Params {
	var p Params
	p.Flavor = Flavor(r.Uvarint())
	p.Rows = int(r.Uvarint())
	p.Cols = int(r.Uvarint())
	p.R = int(r.Uvarint())
	p.W = int(r.Uvarint())
	for pass := 0; pass < 2; pass++ {
		n := r.Uvarint()
		if n > uint64(r.Len()) {
			r.Fail()
			return Params{}
		}
		if n == 0 {
			continue
		}
		ts := make([]int, n)
		for i := range ts {
			ts[i] = int(r.Uvarint())
		}
		if pass == 0 {
			p.RL = ts
		} else {
			p.WL = ts
		}
	}
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail()
		return Params{}
	}
	p.Members = make([]cluster.NodeID, n)
	for i := range p.Members {
		p.Members[i] = cluster.NodeID(r.Uvarint())
	}
	return p
}

// DecodeParams parses the wire form produced by Params.Encode. The result
// is structurally sound but not validated against an ID space — callers
// install it through Store.Install, which validates.
func DecodeParams(data []byte) (Params, error) {
	r := codec.NewReader(data)
	p := readParams(r)
	return p, r.Err()
}

// Config is the epoch-versioned cluster configuration. Old is non-nil
// while a reconfiguration is in flight: the config is then "joint" and
// every quorum must span both Cur and Old (see Pickers and Store).
type Config struct {
	Epoch uint64
	Cur   Params
	Old   *Params
}

// Joint reports whether the config is mid-transition.
func (c Config) Joint() bool { return c.Old != nil }

// Encode appends the config's wire form to b.
func (c Config) Encode(b []byte) []byte {
	b = codec.AppendUvarint(b, c.Epoch)
	if c.Old != nil {
		b = codec.AppendUvarint(b, 1)
	} else {
		b = codec.AppendUvarint(b, 0)
	}
	b = c.Cur.Encode(b)
	if c.Old != nil {
		b = c.Old.Encode(b)
	}
	return b
}

// DecodeConfig parses the wire form produced by Config.Encode, rejecting
// structurally hostile inputs (truncation, absurd member counts).
func DecodeConfig(data []byte) (Config, error) {
	r := codec.NewReader(data)
	var c Config
	c.Epoch = r.Uvarint()
	joint := r.Uvarint()
	if joint > 1 {
		r.Fail()
		return Config{}, r.Err()
	}
	c.Cur = readParams(r)
	if joint == 1 {
		old := readParams(r)
		c.Old = &old
	}
	if err := r.Err(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Fingerprint hashes the config's wire form (FNV-1a), so acknowledgements
// can prove which config they are for — two configs can share an epoch
// number when rival coordinators race, and only matching fingerprints
// count toward a reconfiguration's quorum.
func (c Config) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range c.Encode(nil) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// pickFn draws a quorum (as global node IDs, capacity = ID space) from the
// live set (also global IDs).
type pickFn func(rng *rand.Rand, live bitset.Set) (bitset.Set, error)

// Pickers draws quorums for one Params over a global ID space. The
// constructions are built over the dense member index space; picks map the
// live set down and the chosen quorum back up, so global node IDs stay
// stable across membership changes.
type Pickers struct {
	space   int
	members []cluster.NodeID
	read    pickFn
	write   pickFn
	// The families as threshold formulas over the dense index space: what
	// a cost-aware pick chooses from (see cheapest.go), what CoversWrite
	// evaluates and what the tuner's availability counts. Compiled on
	// first use; writesRead says write quorums may serve reads too.
	compile                         func() (read, write *quorum.Gate)
	writesRead                      bool
	compileOnce                     sync.Once
	readFamily, readGate, writeGate *quorum.Gate
}

// NewPickers validates p against the ID space and builds its quorum
// pickers: read/write pairs for the replicated store (every read quorum
// intersects every write quorum).
func NewPickers(space int, p Params) (*Pickers, error) {
	if err := p.Validate(space); err != nil {
		return nil, err
	}
	members := append([]cluster.NodeID(nil), p.Members...)
	m := len(members)
	pk := &Pickers{space: space, members: members}
	dense := func(inner pickFn) pickFn {
		return func(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
			q, err := inner(rng, pk.toDense(live))
			if err != nil {
				return bitset.Set{}, err
			}
			return pk.toGlobal(q), nil
		}
	}
	switch p.Flavor {
	case FlavorMajority:
		r, w := p.R, p.W
		if r == 0 {
			r = m/2 + 1
		}
		if w == 0 {
			w = m/2 + 1
		}
		rd := func(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
			return pickThreshold(rng, live, m, r)
		}
		wr := func(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
			return pickThreshold(rng, live, m, w)
		}
		pk.read, pk.write = dense(rd), dense(wr)
		pk.compile = func() (read, write *quorum.Gate) {
			return hmajGate(m, []int{r}, 0, m), hmajGate(m, []int{w}, 0, m)
		}
		pk.writesRead = true
	case FlavorHMaj:
		d := p.Rows
		rl := append([]int(nil), p.RL...)
		wl := append([]int(nil), p.WL...)
		rd := func(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
			return pickHMaj(rng, live, d, rl, m)
		}
		wr := func(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
			return pickHMaj(rng, live, d, wl, m)
		}
		pk.read, pk.write = dense(rd), dense(wr)
		pk.compile = func() (read, write *quorum.Gate) {
			return hmajGate(d, rl, 0, m), hmajGate(d, wl, 0, m)
		}
		pk.writesRead = true
	case FlavorHGrid:
		h := hgrid.Auto(p.Rows, p.Cols)
		pk.read = dense(h.PickRowCover)
		pk.write = dense(h.PickFullLine)
		// Two full-lines of different child rows are disjoint: here only
		// row-covers may serve a read.
		pk.compile = func() (read, write *quorum.Gate) { return h.RowCoverGate(), h.FullLineGate() }
	case FlavorHTGrid:
		h := hgrid.Auto(p.Rows, p.Cols)
		sys := htgrid.New(h)
		pk.read = dense(h.PickRowCover)
		pk.write = dense(sys.Pick)
		pk.compile = func() (read, write *quorum.Gate) { return h.RowCoverGate(), sys.Gate() }
		pk.writesRead = true
	case FlavorHTriang:
		sys := htriang.New(p.Rows)
		pk.read, pk.write = dense(sys.Pick), dense(sys.Pick)
		pk.compile = func() (read, write *quorum.Gate) {
			g := sys.Gate()
			return g, g
		}
	}
	return pk, nil
}

// toDense maps a live set of global IDs down to the member index space.
func (p *Pickers) toDense(live bitset.Set) bitset.Set {
	dl := bitset.New(len(p.members))
	for i, id := range p.members {
		if live.Contains(int(id)) {
			dl.Add(i)
		}
	}
	return dl
}

// toGlobal maps a quorum over member indices back up to global IDs.
func (p *Pickers) toGlobal(q bitset.Set) bitset.Set {
	out := bitset.New(p.space)
	q.ForEach(func(i int) { out.Add(int(p.members[i])) })
	return out
}

// Read draws a read quorum from live (global IDs, capacity = ID space).
func (p *Pickers) Read(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	return p.read(rng, live)
}

// Write draws a write quorum.
func (p *Pickers) Write(rng *rand.Rand, live bitset.Set) (bitset.Set, error) {
	return p.write(rng, live)
}

// pickThreshold draws k random live members of an n-node dense space —
// the majority flavor's picker (Gifford with R = W = n/2+1).
func pickThreshold(rng *rand.Rand, live bitset.Set, n, k int) (bitset.Set, error) {
	alive := live.Indices()
	if len(alive) < k {
		return bitset.Set{}, quorum.ErrNoQuorum
	}
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	out := bitset.New(n)
	for _, id := range alive[:k] {
		out.Add(id)
	}
	return out, nil
}
