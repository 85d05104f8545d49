package runner

import (
	"fmt"
	"sync"
	"time"

	"hquorum/benchmark/internal/gen"
	"hquorum/benchmark/internal/sut"
)

const (
	// canaryKeys is how many keys record full invoke/return histories.
	canaryKeys = 8
	// canaryPrefix bounds each canary key's recorded history: the first
	// canaryPrefix invocations, plus every write invoked while one of
	// those reads is still open (a read may return any write invoked
	// before it returns, so those writes have to be in the history).
	canaryPrefix = 192
	// maxViolations bounds the kept violation messages.
	maxViolations = 8
)

// checker is the correctness gate that runs alongside the load: every
// read must return nothing or a value the stream really wrote to that
// key, and the canary keys' histories must be linearizable.
type checker struct {
	g       *gen.Gen
	drivers []*driver
	// canaryOf maps a key index to its canary slot, or -1.
	canaryOf []int8
	canaries [canaryKeys]canary

	mu         sync.Mutex
	violations []string
	nviolation int
}

type canary struct {
	mu        sync.Mutex
	ops       []sut.HistoryOp
	invoked   int
	openReads int
}

// handle names a recorded canary invocation; slot < 0 means the
// operation is not recorded.
type handle struct {
	slot  int8
	index int32
}

// newChecker picks the canary keys. outstanding is the number of
// operations the engine keeps in flight.
func newChecker(g *gen.Gen, drivers []*driver, seed uint64, outstanding int) *checker {
	c := &checker{g: g, drivers: drivers, canaryOf: make([]int8, g.Keys())}
	for i := range c.canaryOf {
		c.canaryOf[i] = -1
	}
	// The canaries come from the generator's own stream, so they follow
	// the workload's key distribution and the seed — except that a key
	// expected to have more than one operation in flight at any time is
	// passed over: the checker's search is exponential in the number of
	// overlapping operations, and under zipf 1.1 the hottest key alone
	// holds a seventh of everything outstanding.
	eligible := 0
	for k := 0; k < g.Keys(); k++ {
		if g.Share(k)*float64(outstanding) <= 1 {
			eligible++
		}
	}
	want := canaryKeys
	if eligible < want {
		want = eligible
	}
	for slot, i := 0, uint64(0); slot < want; i++ {
		k := g.Op(1<<20, seed+i).Key
		if c.canaryOf[k] < 0 && g.Share(k)*float64(outstanding) <= 1 {
			c.canaryOf[k] = int8(slot)
			slot++
		}
	}
	return c
}

func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	c.nviolation++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *checker) invoke(driver int, op gen.Op, at time.Duration) handle {
	slot := c.canaryOf[op.Key]
	if slot < 0 {
		return handle{slot: -1}
	}
	cn := &c.canaries[slot]
	cn.mu.Lock()
	defer cn.mu.Unlock()
	inPrefix := cn.invoked < canaryPrefix
	if !inPrefix && (op.Read || cn.openReads == 0) {
		return handle{slot: -1}
	}
	cn.invoked++
	if op.Read {
		cn.openReads++
	}
	// Operations of one driver overlap (depth > 1), so each recorded
	// invocation is its own client for the checker.
	cn.ops = append(cn.ops, sut.HistoryOp{
		Client: len(cn.ops), Read: op.Read, Key: c.g.KeyName(op.Key), Value: op.Value, Invoke: at,
	})
	return handle{slot: slot, index: int32(len(cn.ops) - 1)}
}

func (c *checker) complete(h handle, op gen.Op, key string, r sut.Result, at time.Duration) {
	if r.Err == nil && op.Read && r.Value != "" {
		d, i, err := c.g.Wrote(key, r.Value)
		switch {
		case err != nil:
			c.violate("read of %s: %v", key, err)
		case d >= len(c.drivers) || i >= c.drivers[d].next.Load():
			c.violate("read of %s returned %q, which had not been written yet", key, r.Value)
		}
	}
	if h.slot < 0 {
		return
	}
	cn := &c.canaries[h.slot]
	cn.mu.Lock()
	o := &cn.ops[h.index]
	if op.Read {
		cn.openReads--
	}
	if r.Err == nil {
		o.Completed, o.Return, o.Order = true, at, r.Order
		if op.Read {
			o.Value = r.Value
		}
	}
	cn.mu.Unlock()
}

// finish runs the linearizability check over the canary histories and
// returns every violation found during and after the run.
func (c *checker) finish() (recorded int, violations []string) {
	for i := range c.canaries {
		cn := &c.canaries[i]
		cn.mu.Lock()
		ops := append([]sut.HistoryOp(nil), cn.ops...)
		cn.mu.Unlock()
		recorded += len(ops)
		if err := sut.CheckLinearizable(ops); err != nil {
			c.violate("canary history: %v", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nviolation > len(c.violations) {
		c.violations = append(c.violations, fmt.Sprintf("... and %d more", c.nviolation-len(c.violations)))
	}
	return recorded, c.violations
}
