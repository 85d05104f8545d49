package analysis

import "math/bits"

// Bit-sliced availability: a Circuit is a flat, hash-consed monotone
// boolean program (AND/OR over input lanes) that evaluates a system's
// availability predicate on 64 live masks at once. Lane j carries bit j
// of 64 independent masks: bit s of lanes[j] is process j's liveness in
// mask s. One Eval call therefore answers 64 availability queries in a
// few dozen word operations — the enumerator feeds it blocks of 64
// consecutive subsets (whose lanes are periodic constants, so no
// transposition is ever needed) and the Monte Carlo sampler feeds it 64
// iid crash patterns (one bernoulliWord per lane).
//
// Circuits are not written by hand: a system whose availability is a
// threshold formula over its processes (quorum.Gate — the h-grid, h-T-grid
// and h-triang) lowers that formula with (*quorum.Gate).Circuit, which is
// the one client of CircuitBuilder outside this package. Graph
// connectivity (Y, Paths) is no such formula, and those systems simply
// don't implement CircuitAvailability.

// CircuitAvailability is the optional bit-sliced fast path: the returned
// circuit must satisfy, for every lane assignment,
//
//	bit s of Eval(lanes) == Available(mask s)
//
// where mask s is the live set of the processes whose lane has bit s set.
// A nil circuit means the system cannot provide one (e.g. the universe
// exceeds 64 processes).
type CircuitAvailability interface {
	AvailabilityCircuit() *Circuit
}

// Circuit op codes. Register 0 is constant false, register 1 constant
// true; op k writes register k+2.
const (
	opLane    = iota // load lanes[a]
	opAnd            // regs[a] & regs[b]
	opOr             // regs[a] | regs[b]
	opAllMask        // AND of lanes[j] over set bits j of mask
	opAnyMask        // OR of lanes[j] over set bits j of mask
)

type circOp struct {
	code int32
	a, b Ref
	mask uint64
}

// Circuit is a compiled lane program. Build one with CircuitBuilder.
type Circuit struct {
	n   int // number of input lanes
	ops []circOp
	out Ref
}

// Lanes returns the number of input lanes (the system's universe size).
func (c *Circuit) Lanes() int { return c.n }

// Ops returns the program length (a size/debugging metric).
func (c *Circuit) Ops() int { return len(c.ops) }

// NumRegs returns the scratch length Eval requires.
func (c *Circuit) NumRegs() int { return len(c.ops) + 2 }

// Eval runs the program over the given lanes. scratch must have at least
// NumRegs entries; it is clobbered. Bit s of the result is the predicate
// value on the mask formed by bit s of every lane.
func (c *Circuit) Eval(lanes []uint64, scratch []uint64) uint64 {
	ops := c.ops // a local slice keeps the loop free of reloads
	regs := scratch[:len(ops)+2]
	regs[0] = 0
	regs[1] = ^uint64(0)
	out := regs[2:]
	for i := range ops {
		op := &ops[i]
		var r uint64
		switch op.code {
		case opLane:
			r = lanes[op.a]
		case opAnd:
			r = regs[op.a] & regs[op.b]
		case opOr:
			r = regs[op.a] | regs[op.b]
		case opAllMask:
			r = ^uint64(0)
			for m := op.mask; m != 0; m &= m - 1 {
				r &= lanes[bits.TrailingZeros64(m)]
			}
		case opAnyMask:
			for m := op.mask; m != 0; m &= m - 1 {
				r |= lanes[bits.TrailingZeros64(m)]
			}
		}
		out[i] = r
	}
	return regs[c.out]
}

// Ref names a circuit value: a constant, or the result of an op.
type Ref int32

// False and True are the constant registers of every circuit.
const (
	False Ref = 0
	True  Ref = 1
)

// CircuitBuilder assembles a Circuit. Identical subexpressions are
// hash-consed to a single op, so compilers may freely re-derive shared
// structure (e.g. the per-threshold variants of a line predicate).
type CircuitBuilder struct {
	n    int
	ops  []circOp
	memo map[circOp]Ref
}

// NewCircuitBuilder starts a circuit over n input lanes.
func NewCircuitBuilder(n int) *CircuitBuilder {
	return &CircuitBuilder{n: n, memo: make(map[circOp]Ref)}
}

func (b *CircuitBuilder) emit(op circOp) Ref {
	if r, ok := b.memo[op]; ok {
		return r
	}
	b.ops = append(b.ops, op)
	r := Ref(len(b.ops) + 1) // register index: ops shifted past the constants
	b.memo[op] = r
	return r
}

// Lane returns the value of input lane j (process j's liveness bit).
func (b *CircuitBuilder) Lane(j int) Ref {
	if j < 0 || j >= b.n {
		panic("analysis: circuit lane out of range")
	}
	return b.emit(circOp{code: opLane, a: Ref(j)})
}

// And returns x ∧ y, folding constants and duplicates.
func (b *CircuitBuilder) And(x, y Ref) Ref {
	if x == False || y == False {
		return False
	}
	if x == True {
		return y
	}
	if y == True || x == y {
		return x
	}
	if x > y {
		x, y = y, x
	}
	return b.emit(circOp{code: opAnd, a: x, b: y})
}

// Or returns x ∨ y, folding constants and duplicates.
func (b *CircuitBuilder) Or(x, y Ref) Ref {
	if x == True || y == True {
		return True
	}
	if x == False {
		return y
	}
	if y == False || x == y {
		return x
	}
	if x > y {
		x, y = y, x
	}
	return b.emit(circOp{code: opOr, a: x, b: y})
}

// AllOf returns the conjunction of the lanes named by mask's set bits
// (true for an empty mask): "every one of these processes is live".
func (b *CircuitBuilder) AllOf(mask uint64) Ref {
	switch bits.OnesCount64(mask) {
	case 0:
		return True
	case 1:
		return b.Lane(bits.TrailingZeros64(mask))
	}
	return b.emit(circOp{code: opAllMask, mask: mask})
}

// AnyOf returns the disjunction of the lanes named by mask's set bits
// (false for an empty mask): "some one of these processes is live".
func (b *CircuitBuilder) AnyOf(mask uint64) Ref {
	switch bits.OnesCount64(mask) {
	case 0:
		return False
	case 1:
		return b.Lane(bits.TrailingZeros64(mask))
	}
	return b.emit(circOp{code: opAnyMask, mask: mask})
}

// Build finalizes the circuit with out as its result.
func (b *CircuitBuilder) Build(out Ref) *Circuit {
	ops := make([]circOp, len(b.ops))
	copy(ops, b.ops)
	return &Circuit{n: b.n, ops: ops, out: out}
}

// popCountMask[k] has bit i (0 ≤ i < 64) set iff OnesCount(i) == k: it
// buckets a 64-lane result word by the popcount of the low 6 subset bits
// with seven OnesCount64 calls instead of a 64-iteration loop.
var popCountMask = func() [7]uint64 {
	var m [7]uint64
	for i := 0; i < 64; i++ {
		m[bits.OnesCount64(uint64(i))] |= 1 << uint(i)
	}
	return m
}()

// laneConst[j] (j < 6) is the lane-j word of the 64 consecutive subset
// values base..base+63 (base a multiple of 64): bit i is bit j of i.
var laneConst = func() [6]uint64 {
	var m [6]uint64
	for i := 0; i < 64; i++ {
		for j := 0; j < 6; j++ {
			if i>>uint(j)&1 == 1 {
				m[j] |= 1 << uint(i)
			}
		}
	}
	return m
}()
