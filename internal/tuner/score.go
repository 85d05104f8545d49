package tuner

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"hquorum/internal/analysis"
	"hquorum/internal/bitset"
	"hquorum/internal/epoch"
	"hquorum/internal/loadopt"
	"hquorum/internal/quorum"
)

// Options parameterize the optimizer's model of the world.
type Options struct {
	// FailP is the per-node failure probability the availability
	// constraint is evaluated at. Default 0.1.
	FailP float64
	// MinAvail is the floor on mix-weighted availability: a candidate
	// whose expected fraction of servable operations at FailP falls
	// below it is infeasible no matter how cheap. Default 0.998 — tight
	// enough that structurally fragile write quorums (grid full lines,
	// aggressive hierarchical thresholds) only become eligible when the
	// measured mix rarely exercises them.
	MinAvail float64
	// Samples sizes the quorum-pick load sampler. Default 512; results
	// are memoized per configuration, so this is a one-time cost.
	Samples int
}

func (o Options) withDefaults() Options {
	if o.FailP == 0 {
		o.FailP = 0.1
	}
	if o.MinAvail == 0 {
		o.MinAvail = 0.998
	}
	if o.Samples == 0 {
		o.Samples = 512
	}
	return o
}

// Score is the optimizer's verdict on one configuration under one
// measured workload.
type Score struct {
	// ReadSize and WriteSize are the average quorum cardinalities of one
	// read phase and one write phase.
	ReadSize, WriteSize float64
	// Cost is the mix-weighted expected messages per client operation:
	// reads cost ReadSize + β·WriteSize (β = the measured write-back
	// fraction as this configuration can earn it, Workload.WritebackFor),
	// writes cost ReadSize + WriteSize (ABD phase 1 + 2).
	Cost float64
	// MaxLoad is the mix-weighted load on the busiest member (per-op
	// access probability); 1/MaxLoad is proportional to the cluster's
	// capacity ceiling when replicas saturate before the network does.
	MaxLoad float64
	// ReadAvail, WriteAvail and Avail are exact availabilities at FailP:
	// the probability a read quorum exists, a write quorum exists, and
	// the mix-weighted probability an arbitrary operation finds the
	// quorums it needs.
	ReadAvail, WriteAvail, Avail float64
	// Feasible reports Avail >= MinAvail.
	Feasible bool
}

// Gain returns how much cheaper o is than s (a Gain of 2 means o costs
// half the messages per op).
func (s Score) Gain(o Score) float64 {
	if o.Cost == 0 {
		return 0
	}
	return s.Cost / o.Cost
}

// pickStats are the workload-independent sampled properties of one
// configuration: average quorum sizes, per-member access vectors and the
// share of read picks that contain a write quorum.
type pickStats struct {
	readSize, writeSize float64
	readPer, writePer   []float64
	// covers is c: only a read whose quorum contains a write quorum can
	// skip its write-back, so only this share of a candidate's reads can
	// earn a measured β below 1.
	covers float64
}

// availStats are the workload-independent exact availabilities of one
// configuration at one FailP.
type availStats struct {
	read, write, both float64
}

var (
	scoreMu    sync.Mutex
	pickMemo   = map[string]pickStats{}
	availMemo  = map[string]availStats{}
	countsMemo = map[string][3][]uint64{}
)

// normalize maps params onto the dense member space 0..m-1: every scored
// quantity (size, load shape, availability) is invariant under the global
// IDs, so the memo can be shared across member sets of equal cardinality.
func normalize(p epoch.Params) epoch.Params {
	q := p
	q.Members = epoch.MemberRange(0, len(p.Members))
	return q
}

func memoKey(p epoch.Params) string {
	return string(normalize(p).Encode(nil))
}

// sampledStats draws Samples read and write quorums from the fully-live
// member set with a fixed-seed rng (deterministic across processes, so
// chaos re-runs stay byte-identical) and memoizes the result.
func sampledStats(p epoch.Params, samples int) (pickStats, error) {
	key := fmt.Sprintf("%s|%d", memoKey(p), samples)
	scoreMu.Lock()
	st, ok := pickMemo[key]
	scoreMu.Unlock()
	if ok {
		return st, nil
	}
	np := normalize(p)
	m := len(np.Members)
	pk, err := epoch.NewPickers(m, np)
	if err != nil {
		return pickStats{}, err
	}
	live := bitset.Universe(m)
	rng := rand.New(rand.NewSource(int64(len(np.Encode(nil))*1000003 + m)))
	var pickErr error
	covering := 0
	read := loadopt.MeasureSampler(m, func(r *rand.Rand) bitset.Set {
		q, err := pk.Read(r, live)
		if err != nil && pickErr == nil {
			pickErr = err
		}
		if err == nil && pk.CoversWrite(q) {
			covering++
		}
		return q
	}, rng, samples)
	write := loadopt.MeasureSampler(m, func(r *rand.Rand) bitset.Set {
		q, err := pk.Write(r, live)
		if err != nil && pickErr == nil {
			pickErr = err
		}
		return q
	}, rng, samples)
	if pickErr != nil {
		return pickStats{}, pickErr
	}
	st = pickStats{
		readSize:  read.AvgQuorumSize,
		writeSize: write.AvgQuorumSize,
		readPer:   read.PerElement,
		writePer:  write.PerElement,
		covers:    float64(covering) / float64(samples),
	}
	scoreMu.Lock()
	pickMemo[key] = st
	scoreMu.Unlock()
	return st, nil
}

// exactAvail computes the probability, at per-node failure probability p,
// that a read quorum exists, a write quorum exists, and both exist.
// Threshold flavors use closed forms; the structural flavors enumerate
// all 2^m live sets exactly (memoized) up to m=20 and fall back to a
// fixed-seed Monte Carlo beyond.
func exactAvail(pr epoch.Params, p float64) (availStats, error) {
	key := fmt.Sprintf("%s|%g", memoKey(pr), p)
	scoreMu.Lock()
	st, ok := availMemo[key]
	scoreMu.Unlock()
	if ok {
		return st, nil
	}
	np := normalize(pr)
	m := len(np.Members)
	q := 1 - p
	var err error
	switch np.Flavor {
	case epoch.FlavorMajority:
		r, w := np.R, np.W
		if r == 0 {
			r = m/2 + 1
		}
		if w == 0 {
			w = m/2 + 1
		}
		st.read = binomTail(m, q, r)
		st.write = binomTail(m, q, w)
		st.both = binomTail(m, q, max(r, w))
	case epoch.FlavorHMaj:
		st = hmajAvail(np.Rows, np.RL, np.WL, q)
	default:
		st, err = structuralAvail(np, p)
		if err != nil {
			return availStats{}, err
		}
	}
	scoreMu.Lock()
	availMemo[key] = st
	scoreMu.Unlock()
	return st, nil
}

// binomTail returns P(Bin(n, q) >= k): the probability at least k of n
// independent members (each alive with probability q) survive.
func binomTail(n int, q float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += analysis.Binomial(n, i) * math.Pow(q, float64(i)) * math.Pow(1-q, float64(n-i))
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// hmajAvail composes per-subtree joint probabilities bottom-up. For each
// subtree it tracks the joint distribution over (read-satisfiable,
// write-satisfiable): the four probabilities p11, p10, p01, p00. A leaf
// is 11 with probability q. An internal node at level i needs RL[i]
// read-capable children and WL[i] write-capable children out of degree d;
// the child states are iid, so a trinomial sweep over (both, read-only,
// write-only) counts gives the exact joint law.
func hmajAvail(degree int, rl, wl []int, q float64) availStats {
	p11, p10, p01 := q, 0.0, 0.0
	for lvl := len(rl) - 1; lvl >= 0; lvl-- {
		r, w := rl[lvl], wl[lvl]
		d := degree
		var n11, n10, n01 float64
		p00 := 1 - p11 - p10 - p01
		if p00 < 0 {
			p00 = 0
		}
		// a children are both-capable, b read-only, c write-only.
		for a := 0; a <= d; a++ {
			pa := analysis.Binomial(d, a) * math.Pow(p11, float64(a))
			if pa == 0 && p11 != 0 {
				continue
			}
			for b := 0; a+b <= d; b++ {
				pb := analysis.Binomial(d-a, b) * math.Pow(p10, float64(b))
				for c := 0; a+b+c <= d; c++ {
					rest := d - a - b - c
					pc := analysis.Binomial(d-a-b, c) * math.Pow(p01, float64(c)) * math.Pow(p00, float64(rest))
					pr := pa * pb * pc
					if pr == 0 {
						continue
					}
					readOK := a+b >= r
					writeOK := a+c >= w
					switch {
					case readOK && writeOK:
						n11 += pr
					case readOK:
						n10 += pr
					case writeOK:
						n01 += pr
					}
				}
			}
		}
		p11, p10, p01 = n11, n10, n01
	}
	return availStats{read: p11 + p10, write: p11 + p01, both: p11}
}

// family is one quorum family as the availability sweeps see it: the
// formula over m dense members, and its circuit (nil beyond 64 members)
// for 64 live sets at a time.
type family struct {
	g       *quorum.Gate
	m       int
	circ    *analysis.Circuit
	scratch []uint64
}

func newFamily(g *quorum.Gate, m int) family {
	f := family{g: g, m: m, circ: g.Circuit(m)}
	if f.circ != nil {
		f.scratch = make([]uint64, f.circ.NumRegs())
	}
	return f
}

func (f family) Universe() int                          { return f.m }
func (f family) Available(live bitset.Set) bool         { return f.g.Eval(live) }
func (f family) AvailabilityCircuit() *analysis.Circuit { return f.circ }

// holds sets bit s when the family holds on the live set formed by bit s
// of every lane.
func (f family) holds(lanes []uint64) uint64 {
	if f.circ != nil {
		return f.circ.Eval(lanes, f.scratch)
	}
	var out uint64
	live := bitset.New(f.m)
	for s := 0; s < 64; s++ {
		live.Clear()
		for j, l := range lanes {
			if l>>uint(s)&1 == 1 {
				live.Add(j)
			}
		}
		if f.g.Eval(live) {
			out |= 1 << uint(s)
		}
	}
	return out
}

// structuralAvail counts, over every live set of a structural flavor
// (grid, triangle), the failure sets of the read family, the write family
// and their conjunction, then evaluates the three failure polynomials at
// p. Beyond 20 members it estimates by fixed-seed Monte Carlo instead.
func structuralAvail(np epoch.Params, p float64) (availStats, error) {
	m := len(np.Members)
	pk, err := epoch.NewPickers(m, np)
	if err != nil {
		return availStats{}, err
	}
	read, write := pk.Families()
	fams := [3]family{newFamily(read, m), newFamily(write, m), newFamily(quorum.All(read, write), m)}
	if m > 20 {
		// 200000 fixed-seed samples, each drawing its members in order;
		// sample s of a block is bit s of every lane.
		const blocks = 3125
		rng := rand.New(rand.NewSource(int64(m)*7919 + int64(np.Flavor)))
		lanes := make([]uint64, m)
		var ok [3]int
		for b := 0; b < blocks; b++ {
			clear(lanes)
			for s := 0; s < 64; s++ {
				for j := range lanes {
					if rng.Float64() >= p {
						lanes[j] |= 1 << uint(s)
					}
				}
			}
			for i, f := range fams {
				ok[i] += bits.OnesCount64(f.holds(lanes))
			}
		}
		const samples = blocks * 64
		return availStats{
			read:  float64(ok[0]) / samples,
			write: float64(ok[1]) / samples,
			both:  float64(ok[2]) / samples,
		}, nil
	}
	ckey := memoKey(np)
	scoreMu.Lock()
	counts, ok := countsMemo[ckey]
	scoreMu.Unlock()
	if !ok {
		for i, f := range fams {
			counts[i] = analysis.TransversalCounts(f)
		}
		scoreMu.Lock()
		countsMemo[ckey] = counts
		scoreMu.Unlock()
	}
	return availStats{
		read:  1 - analysis.Failure(counts[0], p),
		write: 1 - analysis.Failure(counts[1], p),
		both:  1 - analysis.Failure(counts[2], p),
	}, nil
}

// ScoreParams evaluates one configuration against a measured workload:
// message cost and peak member load weighted by the observed read
// fraction and write-back rate, and exact mix-weighted availability at
// FailP. Every expensive sub-result is memoized per configuration shape,
// so steady-state re-scoring is effectively free.
func ScoreParams(p epoch.Params, wl Workload, opt Options) (Score, error) {
	return score(p, wl, opt, false)
}

// ScoreCurrent is ScoreParams for the configuration wl was measured on:
// its reads pay the measured β whatever the sampled picks say. The share c
// is sampled from cost-blind picks, but the running nodes may pick by cost
// — a cost-aware h-T-grid reads on its line, c = 1, where the sampled
// row-covers say 0 — and what the cluster does today needs no model.
func ScoreCurrent(p epoch.Params, wl Workload, opt Options) (Score, error) {
	return score(p, wl, opt, true)
}

func score(p epoch.Params, wl Workload, opt Options, measured bool) (Score, error) {
	opt = opt.withDefaults()
	st, err := sampledStats(p, opt.Samples)
	if err != nil {
		return Score{}, err
	}
	av, err := exactAvail(p, opt.FailP)
	if err != nil {
		return Score{}, err
	}
	f := wl.ReadFrac()
	covers := st.covers
	if measured {
		covers = 1
	}
	beta := wl.WritebackFor(covers)

	readCost := st.readSize + beta*st.writeSize
	writeCost := st.readSize + st.writeSize
	cost := f*readCost + (1-f)*writeCost

	maxLoad := 0.0
	for i := range st.readPer {
		rl := st.readPer[i] + beta*st.writePer[i]
		wlw := st.readPer[i] + st.writePer[i]
		l := f*rl + (1-f)*wlw
		if l > maxLoad {
			maxLoad = l
		}
	}

	readOpAvail := (1-beta)*av.read + beta*av.both
	avail := f*readOpAvail + (1-f)*av.both

	s := Score{
		ReadSize:   st.readSize,
		WriteSize:  st.writeSize,
		Cost:       cost,
		MaxLoad:    maxLoad,
		ReadAvail:  av.read,
		WriteAvail: av.write,
		Avail:      avail,
		Feasible:   avail >= opt.MinAvail,
	}
	return s, nil
}
