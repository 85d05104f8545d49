package nemesis

import (
	"errors"
	"fmt"
	"strings"

	"hquorum/internal/history"
	"hquorum/internal/quorum"
)

// RKVCase names a register configuration to sweep, with the schedules to
// run it under. The embedded RKVRun is the template every run starts
// from (see its fields for windows, batches, keys, disk, leases, cost-
// aware picks and the tuner); the sweep sets Seed, Schedule and
// StateLimit, and OpsPerNode when the template leaves it zero.
type RKVCase struct {
	RKVRun
	Name      string
	Schedules []Schedule
	// WantEpoch, when non-zero, turns an unsettled reconfiguration into a
	// sweep violation: every run must drain at exactly that epoch with no
	// node left on a joint config.
	WantEpoch uint64
	// OneRound marks a case whose read picks contain write quorums, so
	// reads that find their quorum unanimous finish without a write-back:
	// its lines print the summed count and fail at zero, proving the path
	// ran under the case's schedules rather than assuming it.
	OneRound bool
}

// MutexCase names a lock configuration to sweep, with the schedules to
// run it under.
type MutexCase struct {
	Name      string
	System    quorum.System
	Schedules []Schedule
}

// SweepOptions parameterizes a sweep. Zero values pick the runner
// defaults; Seeds defaults to 20 starting at SeedBase 1.
type SweepOptions struct {
	Seeds      int
	SeedBase   int64
	OpsPerNode int // register workload length per node, unless the case sets one
	Count      int // lock critical sections per node
	StateLimit int // linearizability search budget
}

func (o *SweepOptions) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 20
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
}

// Line aggregates one (protocol, case, schedule) cell of a sweep over all
// its seeds. For the register, Completed/Failed/Pending count operations
// and Undecided counts runs whose linearizability search exceeded its
// budget; for the lock, Completed counts critical-section entries and
// Failed abandoned acquisitions. Violations counts runs with a safety
// breach; FirstViolation describes the first one (seed included) so a
// red sweep is immediately reproducible. A lease cell (Lease set) also
// sums its runs' lease activations and locally versioned writes, and
// counts a violation when either is zero: a cell whose lease never
// activated checked nothing it exists to check. A one-round cell
// (OneRound set) does the same with its reads finished at phase 1.
type Line struct {
	Proto, Case, Schedule      string
	Runs                       int
	Completed, Failed, Pending int
	Undecided, Violations      int
	FirstViolation             string
	Lease                      bool
	Grants, LocalVersions      uint64
	OneRound                   bool
	OneRoundReads              uint64
}

// Summary is a deterministic sweep report: same cases, schedules and
// seeds always produce byte-identical String output.
type Summary struct {
	Lines []Line
}

// Violations sums safety breaches across all lines.
func (s *Summary) Violations() int {
	total := 0
	for _, l := range s.Lines {
		total += l.Violations
	}
	return total
}

// Undecided sums budget-exceeded checker runs across all lines.
func (s *Summary) Undecided() int {
	total := 0
	for _, l := range s.Lines {
		total += l.Undecided
	}
	return total
}

// Merge appends another summary's lines.
func (s *Summary) Merge(o *Summary) {
	s.Lines = append(s.Lines, o.Lines...)
}

// String renders the report, one line per (protocol, case, schedule).
func (s *Summary) String() string {
	var b strings.Builder
	for _, l := range s.Lines {
		switch l.Proto {
		case "mutex":
			fmt.Fprintf(&b, "%-5s %-14s %-18s seeds=%-4d entries=%-6d failures=%-5d violations=%d\n",
				l.Proto, l.Case, l.Schedule, l.Runs, l.Completed, l.Failed, l.Violations)
		default:
			fmt.Fprintf(&b, "%-5s %-14s %-18s seeds=%-4d ok=%-6d failed=%-5d pending=%-5d undecided=%-3d violations=%d",
				l.Proto, l.Case, l.Schedule, l.Runs, l.Completed, l.Failed, l.Pending, l.Undecided, l.Violations)
			if l.Lease {
				fmt.Fprintf(&b, " grants=%-5d local_versions=%d", l.Grants, l.LocalVersions)
			}
			if l.OneRound {
				fmt.Fprintf(&b, " one_round_reads=%d", l.OneRoundReads)
			}
			b.WriteByte('\n')
		}
		if l.FirstViolation != "" {
			fmt.Fprintf(&b, "      first: %s\n", l.FirstViolation)
		}
	}
	return b.String()
}

// SweepRKV runs every (case, schedule, seed) register combination and
// aggregates the outcomes.
func SweepRKV(cases []RKVCase, opt SweepOptions) (*Summary, error) {
	opt.fill()
	sum := &Summary{}
	for _, c := range cases {
		for _, sched := range c.Schedules {
			line := Line{Proto: "rkv", Case: c.Name, Schedule: sched.Name, Lease: c.Lease != nil, OneRound: c.OneRound}
			for si := 0; si < opt.Seeds; si++ {
				seed := opt.SeedBase + int64(si)
				run := c.RKVRun
				run.Seed, run.Schedule, run.StateLimit = seed, sched, opt.StateLimit
				if run.OpsPerNode == 0 {
					run.OpsPerNode = opt.OpsPerNode
				}
				res, err := RunRKV(run)
				if err != nil {
					return nil, fmt.Errorf("nemesis: %s/%s seed %d: %w", c.Name, sched.Name, seed, err)
				}
				line.Runs++
				line.Completed += res.Completed
				line.Failed += res.Failed
				line.Pending += res.Pending
				line.Grants += res.LeaseGrants
				line.LocalVersions += res.LocalVersions
				line.OneRoundReads += res.OneRoundReads
				switch {
				case res.Err == nil:
				case errors.Is(res.Err, history.ErrUndecided):
					line.Undecided++
				default:
					line.Violations++
					if line.FirstViolation == "" {
						line.FirstViolation = fmt.Sprintf("seed %d: %v", seed, res.Err)
					}
				}
				if c.WantEpoch != 0 && (res.Joint || res.Epoch != c.WantEpoch) {
					line.Violations++
					if line.FirstViolation == "" {
						line.FirstViolation = fmt.Sprintf("seed %d: reconfiguration unsettled (epoch %d joint %v, want epoch %d)",
							seed, res.Epoch, res.Joint, c.WantEpoch)
					}
				}
			}
			if line.Lease && (line.Grants == 0 || line.LocalVersions == 0) {
				line.Violations++
				if line.FirstViolation == "" {
					line.FirstViolation = fmt.Sprintf("lease path not exercised: %d grants, %d locally versioned writes in %d runs",
						line.Grants, line.LocalVersions, line.Runs)
				}
			}
			if line.OneRound && line.OneRoundReads == 0 {
				line.Violations++
				if line.FirstViolation == "" {
					line.FirstViolation = fmt.Sprintf("one-round read path not exercised: no read finished at phase 1 in %d runs", line.Runs)
				}
			}
			sum.Lines = append(sum.Lines, line)
		}
	}
	return sum, nil
}

// SweepMutex runs every (case, schedule, seed) lock combination and
// aggregates the outcomes.
func SweepMutex(cases []MutexCase, opt SweepOptions) (*Summary, error) {
	opt.fill()
	sum := &Summary{}
	for _, c := range cases {
		for _, sched := range c.Schedules {
			line := Line{Proto: "mutex", Case: c.Name, Schedule: sched.Name}
			for si := 0; si < opt.Seeds; si++ {
				seed := opt.SeedBase + int64(si)
				res, err := RunMutex(MutexRun{
					System:   c.System,
					Seed:     seed,
					Schedule: sched,
					Count:    opt.Count,
				})
				if err != nil {
					return nil, fmt.Errorf("nemesis: %s/%s seed %d: %w", c.Name, sched.Name, seed, err)
				}
				line.Runs++
				line.Completed += res.Entries
				line.Failed += res.Failures
				if len(res.Violations) > 0 {
					line.Violations++
					if line.FirstViolation == "" {
						line.FirstViolation = fmt.Sprintf("seed %d: %v", seed, res.Violations[0])
					}
				}
			}
			sum.Lines = append(sum.Lines, line)
		}
	}
	return sum, nil
}
