package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/benchmark/internal/gen"
	"hquorum/benchmark/internal/span"
	"hquorum/benchmark/internal/sut"
)

// engine keeps a closed loop running against a booted cluster: every
// driver holds a fixed number of operations outstanding and sends the
// next one only when one completes.
type engine struct {
	g     *gen.Gen
	depth int       // operations each driver keeps outstanding
	log   *span.Log // nil on untraced runs
	check *checker
	start time.Time

	drivers []*driver
	stop    atomic.Bool
	pending sync.WaitGroup
}

// driver is one session (asynchronous, re-submitting from the
// completion callback) or one gateway connection (synchronous, one
// goroutine per outstanding request, because Client.Do blocks).
type driver struct {
	e    *engine
	id   int
	sub  sut.Submitter
	call sut.Caller
	// next is the index of the next operation to issue; every operation
	// below it has been handed to the store.
	next atomic.Uint64

	mu  sync.Mutex
	win window
}

// window is what the drivers completed during one measurement window.
// Latencies are kept raw, so quantiles are exact and nothing but an
// append happens on the operation's path.
type window struct {
	readNs, writeNs []int64
	// reads and writes count the completed operations and the quantiles
	// (in microseconds) summarize their latencies; both outlive the
	// samples, which digest frees.
	reads, writes, failed                uint64
	readP50, readP99, writeP50, writeP99 float64
	// slowdown is the host's during the window (hostprobe.go), 0 if the
	// probe made no burst in it.
	slowdown float64
}

// newEngine makes one driver per gateway connection when there are any,
// otherwise one per session.
func newEngine(g *gen.Gen, sessions []sut.Submitter, callers []sut.Caller, depth int, log *span.Log, canarySeed uint64) *engine {
	e := &engine{g: g, depth: depth, log: log, start: time.Now()}
	if len(callers) > 0 {
		for _, cl := range callers {
			e.drivers = append(e.drivers, &driver{e: e, id: len(e.drivers), call: cl})
		}
	} else {
		for _, s := range sessions {
			e.drivers = append(e.drivers, &driver{e: e, id: len(e.drivers), sub: s})
		}
	}
	e.check = newChecker(g, e.drivers, canarySeed, depth*len(e.drivers))
	return e
}

// run starts depth outstanding operations on every driver.
func (e *engine) run() {
	for _, d := range e.drivers {
		for i := 0; i < e.depth; i++ {
			e.pending.Add(1)
			if d.call != nil {
				go d.lane()
			} else {
				d.issue()
			}
		}
	}
}

// halt stops issuing and waits for everything outstanding to complete.
func (e *engine) halt() error {
	e.stop.Store(true)
	done := make(chan struct{})
	go func() { e.pending.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("operations still outstanding 30s after the load stopped")
	}
}

// inflight is one issued operation on its way to completion.
type inflight struct {
	op     gen.Op
	sop    sut.Op
	h      handle
	t0     time.Time
	spanT0 int64 // the span log's clock, sampled operations only
}

func (d *driver) prepare() inflight {
	i := d.next.Add(1) - 1
	op := d.e.g.Op(d.id, i)
	f := inflight{op: op, sop: sut.Op{Read: op.Read, Key: d.e.g.KeyName(op.Key), Value: op.Value}}
	if d.e.log != nil {
		if f.sop.TraceID = sut.TraceID(d.id, i); f.sop.TraceID != "" {
			f.spanT0 = d.e.log.Now()
		}
	}
	f.h = d.e.check.invoke(d.id, op, time.Since(d.e.start))
	f.t0 = time.Now()
	return f
}

func (d *driver) issue() {
	f := d.prepare()
	d.sub.Submit(f.sop, func(r sut.Result) {
		d.complete(f, r)
		if d.e.stop.Load() {
			d.e.pending.Done()
			return
		}
		d.issue()
	})
}

func (d *driver) lane() {
	defer d.e.pending.Done()
	for !d.e.stop.Load() {
		f := d.prepare()
		d.complete(f, d.call.Do(f.sop))
	}
}

func (d *driver) complete(f inflight, r sut.Result) {
	end := time.Now()
	lat, op := int64(end.Sub(f.t0)), f.op
	d.e.check.complete(f.h, op, f.sop.Key, r, end.Sub(d.e.start))
	if f.sop.TraceID != "" {
		d.e.log.Add(span.Span{Name: "client.op", ID: f.sop.TraceID, StartNs: f.spanT0, EndNs: d.e.log.Now()})
	}
	d.mu.Lock()
	switch {
	case r.Err != nil:
		d.win.failed++
	case op.Read:
		d.win.readNs = append(d.win.readNs, lat)
	default:
		d.win.writeNs = append(d.win.writeNs, lat)
	}
	d.mu.Unlock()
}

// rotate takes every driver's current window and starts a new one,
// returning the merged window.
func (e *engine) rotate() window {
	var all window
	for _, d := range e.drivers {
		d.mu.Lock()
		w := d.win
		d.win = window{
			readNs:  make([]int64, 0, len(w.readNs)+len(w.readNs)/4),
			writeNs: make([]int64, 0, len(w.writeNs)+len(w.writeNs)/4),
		}
		d.mu.Unlock()
		all.readNs = append(all.readNs, w.readNs...)
		all.writeNs = append(all.writeNs, w.writeNs...)
		all.failed += w.failed
	}
	all.reads, all.writes = uint64(len(all.readNs)), uint64(len(all.writeNs))
	return all
}
