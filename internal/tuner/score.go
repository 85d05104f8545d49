package tuner

import (
	"fmt"
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
	// ReadAvail, WriteAvail and Avail are availabilities at FailP, exact
	// up to 64 members: the probability a read quorum exists, a write
	// quorum exists, and the mix-weighted probability an arbitrary
	// operation finds the quorums it needs.
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
	scoreMu   sync.Mutex
	pickMemo  = map[string]pickStats{}
	availMemo = map[string]availStats{}
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
// that a read quorum exists, a write quorum exists, and both exist, for
// every flavor from the transversal counts of its read family, its write
// family and their conjunction: exact up to 64 members, and past that a
// fixed-seed Monte Carlo estimate, so every size the search offers scores.
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
	pk, err := epoch.NewPickers(m, np)
	if err != nil {
		return availStats{}, err
	}
	read, write := pk.Families()
	var av [3]float64
	for i, g := range []*quorum.Gate{read, write, quorum.All(read, write)} {
		f := family{g, m}
		if counts, err := analysis.Counts(f); err == nil {
			av[i] = 1 - analysis.Failure(counts, p)
		} else {
			rng := rand.New(rand.NewSource(int64(m)*7919 + int64(np.Flavor)))
			av[i] = 1 - analysis.MonteCarloFailure(f, p, 200000, rng).Estimate
		}
	}
	st = availStats{read: av[0], write: av[1], both: av[2]}
	scoreMu.Lock()
	availMemo[key] = st
	scoreMu.Unlock()
	return st, nil
}

// family is one quorum family over m dense members, as analysis sees it.
type family struct {
	g *quorum.Gate
	m int
}

func (f family) Universe() int                  { return f.m }
func (f family) Available(live bitset.Set) bool { return f.g.Eval(live) }
func (f family) Gate() *quorum.Gate             { return f.g }

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
