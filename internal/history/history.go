// Package history records operation histories of the protocol layer and
// checks them against their correctness conditions: linearizability for
// the replicated register (package rkv) and mutual exclusion for the
// distributed lock (package dmutex).
//
// Recorders are driven by the protocol's client edges — a register
// operation is invoked when it is submitted (rkv.Node.Submit) and
// completes from its callback; the lock reports through
// dmutex.Config.OnAcquire/OnRelease — plus fault-injection callbacks from
// package nemesis: a crash truncates the victim's in-flight operation, so
// chaotic runs produce well-formed histories with pending (possibly
// effective, possibly not) operations rather than garbage. Recorders are
// not goroutine-safe — the discrete-event simulation is single-threaded.
package history

import (
	"fmt"
	"time"
)

// Kind classifies register operations.
type Kind int

// Register operation kinds.
const (
	KindRead Kind = iota
	KindWrite
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindRead {
		return "read"
	}
	return "write"
}

// Op is one recorded register operation. A pending operation (Completed
// false) was invoked but never observed to finish — its client crashed or
// gave up — so it may or may not have taken effect.
type Op struct {
	Client int
	Kind   Kind
	// Key names the register the operation targets; "" is the classic
	// single register. Multi-key histories are checked per key (each key
	// is an independent register — see CheckRegisterPerKey).
	Key string
	// Value is the value written (writes) or returned (completed reads).
	Value string
	// Order is an optional hint ordering writes (the protocol's version
	// stamp); the checker uses it to guide the search, never for
	// correctness.
	Order     uint64
	Invoke    time.Duration
	Return    time.Duration // meaningful only when Completed
	Completed bool
}

func (o Op) String() string {
	span := fmt.Sprintf("[%v..%v]", o.Invoke, o.Return)
	if !o.Completed {
		span = fmt.Sprintf("[%v..?]", o.Invoke)
	}
	if o.Key != "" {
		return fmt.Sprintf("client %d %v(%q=%q) %s", o.Client, o.Kind, o.Key, o.Value, span)
	}
	return fmt.Sprintf("client %d %v(%q) %s", o.Client, o.Kind, o.Value, span)
}

// Register records a register history, one in-flight operation per client
// (clients are sequential, like rkv nodes).
type Register struct {
	ops  []Op
	open map[int]int // client -> index into ops
}

// NewRegister returns an empty register history recorder.
func NewRegister() *Register {
	return &Register{open: make(map[int]int)}
}

// Invoke records an operation start. A still-open operation from the same
// client (possible after a crash-and-restart skipped its completion) is
// left pending.
func (r *Register) Invoke(client int, kind Kind, value string, at time.Duration) {
	r.InvokeKeyed(client, kind, "", value, at)
}

// InvokeKeyed records an operation start against a named key ("" is the
// classic single register).
func (r *Register) InvokeKeyed(client int, kind Kind, key, value string, at time.Duration) {
	delete(r.open, client)
	r.open[client] = len(r.ops)
	r.ops = append(r.ops, Op{Client: client, Kind: kind, Key: key, Value: value, Invoke: at})
}

// Complete records a successful completion. For reads, value is the value
// returned; order is the protocol's version hint (zero is fine).
func (r *Register) Complete(client int, value string, order uint64, at time.Duration) {
	i, ok := r.open[client]
	if !ok {
		return
	}
	delete(r.open, client)
	r.ops[i].Completed = true
	r.ops[i].Return = at
	r.ops[i].Order = order
	if r.ops[i].Kind == KindRead {
		r.ops[i].Value = value
	}
}

// Fail closes the client's in-flight operation as pending: it returned an
// error (or the client crashed), so its effects are unknown.
func (r *Register) Fail(client int, at time.Duration) {
	delete(r.open, client)
}

// Ops returns the recorded history. Operations still open (including any
// left open by Fail or a crash) appear as pending.
func (r *Register) Ops() []Op {
	out := make([]Op, len(r.ops))
	copy(out, r.ops)
	return out
}
