package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hquorum/benchmark/internal/gen"
	"hquorum/benchmark/internal/span"
	"hquorum/benchmark/internal/stats"
	"hquorum/benchmark/internal/sut"
)

// traceStages are the product's op-trace stages reported per layer
// ("total" is left out: it spans the others).
var traceStages = []string{
	"queue", "decode", "lock", "storage", "wal_wait", "fsync",
	"lease", "quorum", "encode", "send", "gw_queue", "gw_dispatch",
}

// layerUnits names every per-layer metric measured on the traced run
// itself (the probes' are in sut.ProbeUnits, the op-trace stages' are
// derived from traceStages).
var layerUnits = map[string]string{
	"client.fail_frac":     "ratio",
	"client.read_p99_us":   "us",
	"client.write_p99_us":  "us",
	"client.traced_ops":    "count",
	"client.traced_ops_ps": "1/s",

	"transport.msgs_per_op":    "count",
	"transport.bytes_per_op":   "B",
	"transport.flushes_per_op": "count",
	"transport.msgs_per_flush": "count",
	"transport.fastpath_frac":  "ratio",
	"transport.dropped":        "count",

	"rkv.replica_busy_us_per_op": "us",
	"rkv.coord_busy_us_per_op":   "us",
	"rkv.deliver_calls_per_op":   "count",
	"rkv.mem_us_per_op":          "us",
	"rkv.submit_to_cb_p50_us":    "us",
	"rkv.submit_to_cb_p99_us":    "us",
	"rkv.pick_cache_hit_frac":    "ratio",
	"rkv.node_share_max":         "ratio",
	"rkv.node_share_min":         "ratio",

	"wal.appends_per_op":     "count",
	"wal.fsyncs_per_op":      "count",
	"wal.sync_rounds_per_op": "count",
	"wal.bytes_per_op":       "B",
	"wal.records_per_sync":   "count",
	"wal.snapshots":          "count",

	"lease.local_read_frac":        "ratio",
	"lease.grants":                 "count",
	"lease.expiries":               "count",
	"lease.inval_rounds_per_write": "count",
	"lease.time_to_first_grant_s":  "s",

	"gateway.hop_p50_us": "us",
	"gateway.hop_p99_us": "us",
	"gateway.shed":       "count",
	"gateway.retries":    "count",

	"optrace.overhead_frac": "ratio",

	"host.slowdown": "ratio",

	"runtime.allocs_per_op":      "count",
	"runtime.alloc_bytes_per_op": "B",
	"runtime.gc_cycles":          "count",
	"runtime.gc_pause_ms":        "ms",
}

// RunTraced measures the per-layer metrics: a short untraced reference
// (for the tracing overhead), then the same load with the decorators in
// place, then the product's own stage timings from a child process
// (stages.go says why), then the isolated probes.
func RunTraced(w Workload, opt Options) (Result, error) {
	// A quarter of the time goes to the untraced reference, half to the
	// traced windows; the probes take about eight seconds on top.
	refN, tracedN := windows(opt.Seconds/4), windows(opt.Seconds/2)
	warm := warmUp(opt.Seconds / 2)

	ref, err := boot(w, opt, nil, "ref")
	if err != nil {
		return Result{}, err
	}
	rm := ref.measure(refN, warm, nil)
	if err := ref.shutdown(true); err != nil {
		return Result{}, err
	}
	refVals, _ := rm.endToEnd()

	decor := sut.NewDecor(sut.Members + w.Sessions)
	l, err := boot(w, opt, decor, "traced")
	if err != nil {
		return Result{}, err
	}
	m := l.measure(tracedN, warm, decor)
	if err := l.shutdown(true); err != nil {
		return Result{}, err
	}
	stages, stageNote := sampleStages(w, opt)
	recorded, violations := l.e.check.finish()
	_, refViolations := ref.e.check.finish()
	violations = append(violations, refViolations...)

	vals := layerMetrics(m, l, stages.P50Us)
	tracedVals, _ := m.endToEnd()
	vals["client.traced_ops_ps"] = tracedVals["ops_per_s"]
	vals["client.read_p99_us"] = tracedVals["read_p99_us"]
	vals["client.write_p99_us"] = tracedVals["write_p99_us"]
	vals["optrace.overhead_frac"] = ratio(refVals["ops_per_s"]-tracedVals["ops_per_s"], refVals["ops_per_s"])
	vals["host.slowdown"] = tracedVals["host.slowdown"]

	spans := decor.Log.Spans()
	hop := span.SelfTimes(spans, "gateway.do")
	sort.Slice(hop, func(i, j int) bool { return hop[i] < hop[j] })
	vals["gateway.hop_p50_us"] = stats.Quantile(hop, 0.5) / 1e3
	vals["gateway.hop_p99_us"] = stats.Quantile(hop, 0.99) / 1e3

	probes, err := runProbes(w, opt)
	if err != nil {
		return Result{}, err
	}
	for k, v := range probes {
		vals[k] = v
	}

	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return Result{}, err
	}
	path := filepath.Join(opt.OutDir, "trace-"+w.Name+".json")
	if err := decor.Log.WriteFile(path, decor.DeliverAggregates()); err != nil {
		return Result{}, fmt.Errorf("writing %s: %w", path, err)
	}

	// Every value measured is printed, so that one the manifest does not
	// declare is caught by its check instead of dropped here.
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	res := newResult(m, vals, names, violations)
	res.Notes = []string{
		fmt.Sprintf("traced: %d windows of %v after %d untraced reference windows; %d spans kept, %d submit-to-callback samples, %d gateway hops",
			tracedN, windowLen, refN, len(spans), m.layer.SubmitCount, len(hop)),
		stageNote,
		gateNote(recorded),
	}
	return res, nil
}

// layerMetrics turns the counter deltas over the traced windows into
// the per-layer metrics.
func layerMetrics(m measured, l *live, stages map[string]float64) map[string]float64 {
	a, b := m.span()
	ok, failed := m.completed()
	n := float64(ok)
	var reads, writes float64
	for _, w := range m.windows {
		reads += float64(w.reads)
		writes += float64(w.writes)
	}
	d := func(after, before uint64) float64 { return float64(after - before) }
	ka, kb := a.k, b.k
	sent, flushes := d(kb.Sent, ka.Sent), d(kb.Flushes, ka.Flushes)
	appends, rounds := d(kb.WALAppends, ka.WALAppends), d(kb.WALSyncRounds, ka.WALSyncRounds)
	hits, misses := d(kb.PickHits, ka.PickHits), d(kb.PickMisses, ka.PickMisses)
	vals := map[string]float64{
		"client.fail_frac":  ratio(float64(failed), float64(ok+failed)),
		"client.traced_ops": n,

		"transport.msgs_per_op":    ratio(sent, n),
		"transport.bytes_per_op":   ratio(d(kb.BytesOut, ka.BytesOut), n),
		"transport.flushes_per_op": ratio(flushes, n),
		"transport.msgs_per_flush": ratio(sent, flushes),
		"transport.fastpath_frac":  ratio(d(kb.FastPath, ka.FastPath), d(kb.Received, ka.Received)),
		"transport.dropped":        d(kb.Dropped, ka.Dropped),

		"rkv.replica_busy_us_per_op": ratio(float64(m.layer.ReplicaBusyNs)/1e3, n),
		"rkv.coord_busy_us_per_op":   ratio(float64(m.layer.CoordBusyNs)/1e3, n),
		"rkv.deliver_calls_per_op":   ratio(float64(m.layer.DeliverCalls), n),
		"rkv.submit_to_cb_p50_us":    m.layer.SubmitP50Us,
		"rkv.submit_to_cb_p99_us":    m.layer.SubmitP99Us,
		"rkv.pick_cache_hit_frac":    ratio(hits, hits+misses),
		"rkv.node_share_max":         m.layer.ShareMax,
		"rkv.node_share_min":         m.layer.ShareMin,

		"wal.appends_per_op":     ratio(appends, n),
		"wal.fsyncs_per_op":      ratio(d(kb.WALFileSyncs, ka.WALFileSyncs), n),
		"wal.sync_rounds_per_op": ratio(rounds, n),
		"wal.bytes_per_op":       ratio(d(kb.WALBytes, ka.WALBytes), n),
		"wal.records_per_sync":   ratio(appends, rounds),
		"wal.snapshots":          d(kb.WALSnapshots, ka.WALSnapshots),

		"lease.local_read_frac":        ratio(d(kb.LeaseLocalReads, ka.LeaseLocalReads), reads),
		"lease.grants":                 float64(kb.LeaseGrants),
		"lease.expiries":               float64(kb.LeaseExpiries),
		"lease.inval_rounds_per_write": ratio(d(kb.LeaseInvalRounds, ka.LeaseInvalRounds), writes),
		"lease.time_to_first_grant_s":  l.grant.Seconds(),

		"gateway.shed":    d(kb.GwShed, ka.GwShed),
		"gateway.retries": d(kb.GwRetries, ka.GwRetries),

		"runtime.allocs_per_op":      ratio(d(b.allocs, a.allocs), n),
		"runtime.alloc_bytes_per_op": ratio(d(b.bytes, a.bytes), n),
		"runtime.gc_cycles":          d(b.gcs, a.gcs),
		"runtime.gc_pause_ms":        float64((b.gcPause - a.gcPause).Microseconds()) / 1e3,
	}
	for _, st := range traceStages {
		vals["optrace."+st+"_p50_us"] = stages[st]
	}
	return vals
}

// runProbes runs the isolated layer probes on this workload's stream.
func runProbes(w Workload, opt Options) (map[string]float64, error) {
	g := gen.New(w.mix(opt.Seed))
	out := map[string]float64{}
	add := func(vals map[string]float64, err error) error {
		for k, v := range vals {
			out[k] = v
		}
		return err
	}

	// One full batch of writes, then one of reads, from the head of
	// driver 0's stream: the session coalesces consecutive operations of
	// one kind, so this order gives exactly two full quorum rounds.
	var writes, reads []sut.Op
	for i := uint64(0); len(reads) < sut.Batch || len(writes) < sut.Batch; i++ {
		op := g.Op(0, i)
		sop := sut.Op{Read: op.Read, Key: g.KeyName(op.Key), Value: op.Value}
		if op.Read && len(reads) < sut.Batch {
			reads = append(reads, sop)
		} else if !op.Read && len(writes) < sut.Batch {
			writes = append(writes, sop)
		}
	}
	batch := append(writes, reads...)
	frames, err := sut.CaptureFrames(batch)
	if err != nil {
		return nil, err
	}
	if err := add(sut.ProbeCodec(frames)); err != nil {
		return nil, err
	}
	if err := add(sut.ProbeHop(frames)); err != nil {
		return nil, err
	}
	if err := add(sut.ProbeEpoch()); err != nil {
		return nil, err
	}
	if err := add(sut.ProbeWAL(opt.WorkDir, gen.Value("k0000", 0, 0))); err != nil {
		return nil, err
	}
	if err := add(sut.ProbeLease(), nil); err != nil {
		return nil, err
	}
	gwOp := func(conn, i int) sut.Op {
		op := g.Op(conn, uint64(i))
		return sut.Op{Read: op.Read, Key: g.KeyName(op.Key), Value: op.Value}
	}
	if err := add(sut.ProbeGateway(gwOp)); err != nil {
		return nil, err
	}
	if err := add(probeMem(w, opt)); err != nil {
		return nil, err
	}
	return out, nil
}

// probeMem runs the workload's stream on the in-process mesh: the same
// store with no codec and no sockets, so its CPU per operation is the
// floor the TCP workloads sit on.
func probeMem(w Workload, opt Options) (map[string]float64, error) {
	mw := Workload{Name: w.Name + "/mem", ReadFrac: w.ReadFrac, Zipf: w.Zipf, Sessions: 2, Depth: 64}
	c, err := sut.Boot(sut.Spec{Sessions: mw.Sessions, Mem: true})
	if err != nil {
		return nil, err
	}
	e := newEngine(gen.New(mw.mix(opt.Seed)), c.Sessions(), nil, mw.Depth, nil, opt.Seed)
	e.run()
	time.Sleep(300 * time.Millisecond)
	e.rotate()
	cpu0 := stats.CPUTime()
	time.Sleep(1200 * time.Millisecond)
	win := e.rotate()
	cpu := stats.CPUTime() - cpu0
	err = e.halt()
	c.Stop()
	if err != nil {
		return nil, err
	}
	if _, v := e.check.finish(); len(v) > 0 {
		return nil, fmt.Errorf("mem probe: %s", v[0])
	}
	if win.failed > 0 || win.ok() == 0 {
		return nil, fmt.Errorf("mem probe: %d ok, %d failed", win.ok(), win.failed)
	}
	return map[string]float64{"rkv.mem_us_per_op": float64(cpu.Microseconds()) / float64(win.ok())}, nil
}
