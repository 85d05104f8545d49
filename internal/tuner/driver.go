package tuner

import (
	"time"

	"hquorum/internal/epoch"
)

// Policy says when the driver may re-shape the cluster. The zero value of
// every field means "use the default", so `&tuner.Policy{}` is a sane
// auto-tune configuration.
type Policy struct {
	// Interval is how often the driver wakes up and re-scores the
	// candidate space against the profiler window. Default 250ms.
	Interval time.Duration
	// Span is the profiler window the decisions are based on. Default
	// 8×Interval.
	Span time.Duration
	// HoldFor is how many consecutive evaluations the same winner must
	// survive before the driver triggers a reconfiguration — the
	// hysteresis that keeps a noisy mix from thrashing epochs. Default 2.
	HoldFor int
	// MinGain is the cost ratio (current/winner) a winner must clear.
	// Default 1.25.
	MinGain float64
	// MinOps is the minimum operations in the window worth acting on.
	// Default 32.
	MinOps uint64
	// FailP, MinAvail and Samples parameterize the optimizer; see
	// Options.
	FailP    float64
	MinAvail float64
	Samples  int
}

// WithDefaults fills zero fields.
func (p Policy) WithDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = 250 * time.Millisecond
	}
	if p.Span <= 0 {
		p.Span = 8 * p.Interval
	}
	if p.HoldFor <= 0 {
		p.HoldFor = 2
	}
	if p.MinGain <= 0 {
		p.MinGain = 1.25
	}
	if p.MinOps == 0 {
		p.MinOps = 32
	}
	return p
}

func (p Policy) options() Options {
	return Options{FailP: p.FailP, MinAvail: p.MinAvail, Samples: p.Samples}.withDefaults()
}

// Decision is one evaluation's outcome.
type Decision struct {
	// Current is the running configuration's score under the measured
	// workload (scored even when infeasible — it is what the cluster
	// does today).
	Current Candidate
	// Best is the cheapest feasible candidate, which may equal Current.
	Best Candidate
	// Gain is Current.Cost / Best.Cost.
	Gain float64
	// Hold is how many consecutive evaluations Best has won.
	Hold int
	// Swap reports that Best has beaten Current by MinGain for HoldFor
	// evaluations: the driver wants an epoch reconfiguration to
	// Best.Params.
	Swap bool
	// Ranked is the full scored candidate list (for operators; nil when
	// the evaluation aborted early for lack of traffic).
	Ranked []Candidate
}

// Driver applies a Policy across evaluations, tracking how long the
// current winner has held. It is not safe for concurrent use; the rkv
// node drives it from its event loop, quorumctl from main.
type Driver struct {
	pol    Policy
	lastFP uint64
	hold   int
}

// NewDriver returns a driver for the policy (defaults applied).
func NewDriver(pol Policy) *Driver {
	return &Driver{pol: pol.WithDefaults()}
}

// Policy returns the driver's effective policy.
func (d *Driver) Policy() Policy { return d.pol }

// Reset forgets the hold streak (after a reconfiguration or a restart).
func (d *Driver) Reset() {
	d.lastFP = 0
	d.hold = 0
}

// Evaluate scores the candidate space against one workload snapshot and
// applies the policy's gain and hysteresis rules.
func (d *Driver) Evaluate(cur epoch.Params, wl Workload) (Decision, error) {
	if wl.Ops() < d.pol.MinOps {
		d.Reset()
		cs, err := ScoreCurrent(cur, wl, d.pol.options())
		if err != nil {
			return Decision{}, err
		}
		c := Candidate{Params: cur, Score: cs}
		return Decision{Current: c, Best: c, Gain: 1}, nil
	}
	opt := d.pol.options()
	ranked, err := Search(cur.Members, wl, opt)
	if err != nil {
		return Decision{}, err
	}
	curScore, err := ScoreCurrent(cur, wl, opt)
	if err != nil {
		return Decision{}, err
	}
	dec := Decision{
		Current: Candidate{Params: cur, Score: curScore},
		Ranked:  ranked,
	}
	dec.Best = dec.Current
	for _, c := range ranked {
		if c.Score.Feasible {
			dec.Best = c
			break
		}
	}
	dec.Gain = curScore.Gain(dec.Best.Score)
	if dec.Best.Params.Equal(cur) || dec.Gain < d.pol.MinGain {
		d.Reset()
		return dec, nil
	}
	fp := epoch.Config{Cur: dec.Best.Params}.Fingerprint()
	if fp == d.lastFP {
		d.hold++
	} else {
		d.lastFP = fp
		d.hold = 1
	}
	dec.Hold = d.hold
	if d.hold >= d.pol.HoldFor {
		dec.Swap = true
		d.Reset()
	}
	return dec, nil
}
