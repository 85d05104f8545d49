// Package runner drives one workload against the system under test:
// set-up, warm-up, measurement windows, the correctness gate, and the
// arithmetic that turns counters into the named metrics.
package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"

	"hquorum/benchmark/internal/gen"
	"hquorum/benchmark/internal/span"
	"hquorum/benchmark/internal/stats"
	"hquorum/benchmark/internal/sut"
)

// Workload is one traffic mix over the fixed system.
type Workload struct {
	Name     string
	ReadFrac float64
	Zipf     float64
	Disk     bool
	WAN      bool
	// HostBound says that the processor, not an injected delay, sets this
	// workload's speed, so its throughput, latency and CPU cost move with
	// the host's slowdown and are corrected for it (hostprobe.go).
	HostBound bool
	// Sessions is the number of session nodes; Gateway the number of
	// gateway connections (0 = drivers submit to the sessions directly);
	// Depth the operations each driver keeps outstanding.
	Sessions, Gateway, Depth int
	// productTrace turns the product's own op tracing on; only the
	// stage-sampling child process sets it (see stages.go).
	productTrace bool
}

// Keys is the size of the key space on every workload.
const Keys = 4096

// Workloads are the benchmark's four workloads; the names are final.
var Workloads = []Workload{
	{Name: "lan-mixed", ReadFrac: 0.5, HostBound: true, Sessions: 2, Depth: 64},
	{Name: "disk-write", ReadFrac: 0.05, Disk: true, HostBound: true, Sessions: 2, Depth: 64},
	{Name: "gw-lease-read", ReadFrac: 0.9, HostBound: true, Sessions: 1, Gateway: 2, Depth: 32},
	{Name: "wan3-mixed", ReadFrac: 0.5, Zipf: 1.1, WAN: true, Sessions: 2, Depth: 64},
}

// Find returns the named workload.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Options are one run's arguments.
type Options struct {
	Seed    uint64
	Seconds float64
	// WorkDir holds throwaway WAL directories; OutDir receives the
	// trace file of a traced run.
	WorkDir, OutDir string
	// Self is the path of this executable, which a traced run starts
	// again as the stage-sampling child.
	Self string
}

// Metric is a measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports.
type Result struct {
	Attempted  uint64
	Failed     uint64
	Metrics    map[string]Metric
	Violations []string
	// Notes are lines for the human-readable report (sample counts).
	Notes []string
}

// Correct reports whether the run passed the correctness gate.
func (r Result) Correct() bool { return len(r.Violations) == 0 }

// newResult fills a result from the measured windows and metric values.
func newResult(m measured, vals map[string]float64, names []string, violations []string) Result {
	res := Result{Metrics: map[string]Metric{}, Violations: violations}
	ok, failed := m.completed()
	res.Attempted, res.Failed = ok+failed, failed
	for _, name := range names {
		res.Metrics[name] = Metric{Value: vals[name], Unit: Units[name]}
	}
	return res
}

func gateNote(recorded int) string {
	return fmt.Sprintf("correctness: every read value verified; %d canary invocations checked for linearizability", recorded)
}

const (
	// windowLen is the length of one measurement window. A run cuts one per
	// second of --seconds and reports the median over them.
	windowLen = time.Second
	// An untraced run boots the system at least minSetups times and goes
	// on, up to maxSetups, while the boots so far took less than
	// setupBudget together: set-up takes 10 to 200 ms depending on the
	// workload, and many short boots are steadier than three (disk-write's
	// boots, which wait for fsyncs, spread 35 % from run to run at eight
	// boots a run). setup_s is the mean of their middle half, not their
	// median: wan3-mixed boots in 30 ms or in 50 ms, about equally often,
	// and the median of 15 such boots is one or the other. The first boot
	// carries the measurement.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

func (w Workload) mix(seed uint64) gen.Mix {
	return gen.Mix{Seed: seed, Keys: Keys, ReadFrac: w.ReadFrac, Zipf: w.Zipf}
}

func (w Workload) spec(dataRoot string, decor *sut.Decor) sut.Spec {
	return sut.Spec{
		Disk: w.Disk, DataRoot: dataRoot, Sessions: w.Sessions,
		Gateway: w.Gateway, Depth: w.Depth, WAN: w.WAN, Decor: decor,
		ProductTrace: w.productTrace,
	}
}

// live is a booted cluster with its load running.
type live struct {
	w        Workload
	c        *sut.Cluster
	e        *engine
	dataRoot string
	// ready is how long boot took up to the first acknowledged operation
	// (and, behind the gateway, the first lease grant); grant is the
	// lease part alone, from boot.
	ready, grant time.Duration
}

// walDir names the throwaway WAL directory of one boot of one process.
func walDir(opt Options, pid int, tag string) string {
	return filepath.Join(opt.WorkDir, fmt.Sprintf("wal-%d-%s", pid, tag))
}

// boot starts the system and the load and waits until it is serving.
func boot(w Workload, opt Options, decor *sut.Decor, tag string) (*live, error) {
	t0 := time.Now()
	l := &live{w: w}
	if w.Disk {
		l.dataRoot = walDir(opt, os.Getpid(), tag)
		if err := os.MkdirAll(l.dataRoot, 0o755); err != nil {
			return nil, err
		}
	}
	c, err := sut.Boot(w.spec(l.dataRoot, decor))
	if err != nil {
		l.removeData()
		return nil, err
	}
	l.c = c
	var log *span.Log
	if decor != nil {
		log = decor.Log
	}
	l.e = newEngine(gen.New(w.mix(opt.Seed)), c.Sessions(), c.Callers(), w.Depth, log, opt.Seed)
	l.e.run()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var done uint64
		for _, d := range l.e.drivers {
			d.mu.Lock()
			done += uint64(len(d.win.readNs) + len(d.win.writeNs))
			d.mu.Unlock()
		}
		granted := w.Gateway == 0 || c.Counters().LeaseGrants > 0
		if granted && l.grant == 0 && w.Gateway > 0 {
			l.grant = time.Since(t0)
		}
		if done > 0 && granted {
			break
		}
		if time.Now().After(deadline) {
			l.shutdown(true)
			return nil, fmt.Errorf("%s: not serving 30s after boot (completed %d, lease granted %v)", w.Name, done, granted)
		}
		time.Sleep(time.Millisecond)
	}
	l.ready = time.Since(t0)
	return l, nil
}

// shutdown stops the load and the cluster. A clean shutdown also closes
// storage and removes the WAL directories; otherwise they stay exactly
// as a killed process would leave them.
func (l *live) shutdown(clean bool) error {
	err := l.e.halt()
	l.c.Stop()
	if clean {
		if cerr := l.c.CloseStorage(); err == nil {
			err = cerr
		}
		l.removeData()
	}
	return err
}

func (l *live) removeData() {
	if l.dataRoot != "" {
		os.RemoveAll(l.dataRoot)
	}
}

// sample is every cumulative counter read at a window boundary.
type sample struct {
	at      time.Time
	cpu     time.Duration
	k       sut.Counters
	allocs  uint64
	bytes   uint64
	gcs     uint64
	gcPause time.Duration
	steal   uint64 // stealTicks
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func takeSample(c *sut.Cluster) sample {
	s := sample{at: time.Now(), cpu: stats.CPUTime(), k: c.Counters()}
	rt := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(rt)
	s.allocs, s.bytes, s.gcs = rt[0].Value.Uint64(), rt[1].Value.Uint64(), rt[2].Value.Uint64()
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	s.gcPause = gc.PauseTotal
	s.steal = stealTicks()
	return s
}

// measured is one phase of measurement windows.
type measured struct {
	w       Workload
	windows []window
	marks   []sample // len(windows)+1 boundaries
	layer   sut.LayerReport
}

// windows is how many measurement windows fit in the given seconds.
func windows(seconds float64) int {
	if n := int(seconds / windowLen.Seconds()); n > 1 {
		return n
	}
	return 1
}

// warmUp is the unmeasured time before the first window: an eighth of
// the run (3 s before 25 s of windows).
func warmUp(seconds float64) time.Duration {
	return time.Duration(seconds / 8 * float64(time.Second))
}

// measure lets the load warm up, then cuts n windows. If the host stole
// processors in more than half of them (hostprobe.go) it goes on, for at
// most three times as long again, until as many as half of n were
// undisturbed: an episode lasts a minute or two and comes about once an
// hour, so few runs are ever longer than asked for.
func (l *live) measure(n int, warm time.Duration, decor *sut.Decor) measured {
	probe := startHostProbe()
	defer probe.close()
	time.Sleep(warm)
	m := measured{w: l.w}
	l.e.rotate() // discard the warm-up
	probe.take()
	var mark sut.Mark
	if decor != nil {
		decor.ResetSubmit()
		mark = decor.Mark()
	}
	m.marks = append(m.marks, takeSample(l.c))
	for len(m.windows) < n || (2*len(m.clean()) < n && len(m.windows) < 4*n) {
		time.Sleep(windowLen)
		w := l.e.rotate()
		m.marks = append(m.marks, takeSample(l.c))
		w.slowdown = probe.take()
		w.digest()
		m.windows = append(m.windows, w)
	}
	if decor != nil {
		m.layer = decor.Since(mark)
	}
	return m
}

func (w window) ok() uint64 { return w.reads + w.writes }

func (m measured) completed() (ok, failed uint64) {
	for _, w := range m.windows {
		ok += w.ok()
		failed += w.failed
	}
	return ok, failed
}

func (m measured) span() (first, last sample) { return m.marks[0], m.marks[len(m.marks)-1] }

// digest reduces the window's latency samples to their quantiles and
// frees them, so that a run holds one window of samples at a time. It
// runs while the next window is measured: a sort of at most a few
// hundred thousand values, once a second.
func (w *window) digest() {
	slices.Sort(w.readNs)
	slices.Sort(w.writeNs)
	w.readP50, w.readP99 = stats.Quantile(w.readNs, 0.5)/1e3, stats.Quantile(w.readNs, 0.99)/1e3
	w.writeP50, w.writeP99 = stats.Quantile(w.writeNs, 0.5)/1e3, stats.Quantile(w.writeNs, 0.99)/1e3
	w.readNs, w.writeNs = nil, nil
}

// rate returns window i's throughput in operations per second.
func (m measured) rate(i int) float64 {
	return float64(m.windows[i].ok()) / m.marks[i+1].at.Sub(m.marks[i].at).Seconds()
}

// clean returns the indices of the windows in which the host stole no
// more than stolenShare of the processors.
func (m measured) clean() []int {
	var idx []int
	for i := range m.windows {
		a, b := m.marks[i], m.marks[i+1]
		if stolen(a.steal, b.steal, b.at.Sub(a.at)) <= stolenShare {
			idx = append(idx, i)
		}
	}
	return idx
}

// endToEnd computes throughput, the latency quantiles and the CPU cost:
// each is the median over the windows, which one disturbed second cannot
// move, and on a host-bound workload the host's slowdown over the run is
// divided out, which a disturbed minute moves and the windows cannot
// escape.
func (m measured) endToEnd() (map[string]float64, []string) {
	// The clean windows count; a run with none reports on all of them.
	kept := m.clean()
	if len(kept) == 0 {
		for i := range m.windows {
			kept = append(kept, i)
		}
	}
	var rates, cpu, r50, r99, w50, w99, slows []float64
	for _, i := range kept {
		w := m.windows[i]
		rates = append(rates, m.rate(i))
		if w.ok() > 0 {
			cpu = append(cpu, float64((m.marks[i+1].cpu-m.marks[i].cpu).Nanoseconds())/1e3/float64(w.ok()))
		}
		if w.reads > 0 {
			r50, r99 = append(r50, w.readP50), append(r99, w.readP99)
		}
		if w.writes > 0 {
			w50, w99 = append(w50, w.writeP50), append(w99, w.writeP99)
		}
		if w.slowdown > 0 {
			slows = append(slows, w.slowdown)
		}
	}
	raw := map[string]float64{
		"ops_per_s":     stats.Median(rates),
		"cpu_us_per_op": stats.Median(cpu),
		"read_p50_us":   stats.Median(r50),
		"read_p99_us":   stats.Median(r99),
		"write_p50_us":  stats.Median(w50),
		"write_p99_us":  stats.Median(w99),
	}
	slowdown := 1.0
	if len(slows) > 0 {
		slowdown = stats.Median(slows)
	}
	slow, scope := slowdown, "divided out of throughput, latency and CPU per operation"
	if !m.w.HostBound {
		slow, scope = 1, "not applied: the injected delays set this workload's speed"
	}
	out := map[string]float64{
		"host.slowdown": slowdown,
		"ops_per_s":     raw["ops_per_s"] * slow,
		"cpu_us_per_op": raw["cpu_us_per_op"] / slow,
		"read_p50_us":   raw["read_p50_us"] / slow,
		"read_p99_us":   raw["read_p99_us"] / slow,
		"write_p50_us":  raw["write_p50_us"] / slow,
		"write_p99_us":  raw["write_p99_us"] / slow,
	}
	ok, _ := m.completed()
	all, steal := make([]float64, len(m.windows)), make([]float64, len(m.windows))
	for i := range all {
		all[i] = m.rate(i)
		steal[i] = 100 * stolen(m.marks[i].steal, m.marks[i+1].steal, m.marks[i+1].at.Sub(m.marks[i].at))
	}
	notes := []string{
		fmt.Sprintf("%d windows of %v, %d operations; every figure is the median over the %d windows the host stole no processor time from",
			len(m.windows), m.marks[1].at.Sub(m.marks[0].at).Round(time.Millisecond), ok, len(kept)),
		fmt.Sprintf("host slowdown %.3f (%.1f ns a probe access against %.1f nominal), %s",
			slowdown, slowdown*nominalAccessNs, nominalAccessNs, scope),
		fmt.Sprintf("as measured: %.0f ops/s, %.2f us CPU/op, read p50 %.1f us, write p50 %.1f us",
			raw["ops_per_s"], raw["cpu_us_per_op"], raw["read_p50_us"], raw["write_p50_us"]),
		fmt.Sprintf("ops/s per window: %.0f", all),
		fmt.Sprintf("CPU us/op per clean window: %.1f", cpu),
		fmt.Sprintf("%% of the processors stolen per window: %.1f", steal),
	}
	return out, notes
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// RunUntraced measures the end-to-end metrics: no decorators, product
// tracing off. It measures on the first boot and then boots the system
// several more times for setup_s.
func RunUntraced(w Workload, opt Options) (Result, error) {
	l, err := boot(w, opt, nil, "run")
	if err != nil {
		return Result{}, err
	}
	readies := []float64{l.ready.Seconds()}
	m := l.measure(windows(opt.Seconds), warmUp(opt.Seconds), nil)
	// The peak is read before the extra boots below, so that it is the
	// system's under load and not the benchmark's for booting repeatedly.
	peak := stats.PeakRSSMiB()

	var violations []string
	if w.Disk {
		// The store is quiet from here on: compare what a quorum read
		// returns before the crash-style stop and after a reboot from the
		// same WAL directories.
		if err := l.e.halt(); err != nil {
			l.shutdown(true)
			return Result{}, err
		}
		lost, err := l.rebootCheck()
		if err != nil {
			return Result{}, err
		}
		violations = append(violations, lost...)
	} else if err := l.shutdown(true); err != nil {
		return Result{}, err
	}
	recorded, v := l.e.check.finish()
	violations = append(violations, v...)

	// More boots, for setup_s alone.
	spent := l.ready
	for n := 1; n < maxSetups && (n < minSetups || spent < setupBudget); n++ {
		extra, err := boot(w, opt, nil, fmt.Sprintf("setup%d", n))
		if err != nil {
			return Result{}, err
		}
		readies = append(readies, extra.ready.Seconds())
		spent += extra.ready
		if err := extra.shutdown(true); err != nil {
			return Result{}, err
		}
		if _, v := extra.e.check.finish(); len(v) > 0 {
			violations = append(violations, v...)
		}
	}

	vals, notes := m.endToEnd()
	vals["peak_rss_mb"] = peak
	vals["setup_s"] = stats.MidMean(readies)
	res := newResult(m, vals, EndToEnd, violations)
	res.Notes = append(notes,
		fmt.Sprintf("setup_s is the mean of the middle half of %d boots: %.3f", len(readies), readies),
		fmt.Sprintf("p99: reads %.1f us, writes %.1f us (the traced run reports them as client.*_p99_us)", vals["read_p99_us"], vals["write_p99_us"]),
		gateNote(recorded))
	return res, nil
}

// readAll quorum-reads every key through session 0.
func readAll(c *sut.Cluster, g *gen.Gen) (map[string]string, error) {
	type kv struct {
		k, v string
		err  error
	}
	sess := c.Sessions()[0]
	ch := make(chan kv, g.Keys())
	for k := 0; k < g.Keys(); k++ {
		key := g.KeyName(k)
		sess.Submit(sut.Op{Read: true, Key: key}, func(r sut.Result) { ch <- kv{key, r.Value, r.Err} })
	}
	out := make(map[string]string, g.Keys())
	timeout := time.After(60 * time.Second)
	for len(out) < g.Keys() {
		select {
		case e := <-ch:
			if e.err != nil {
				return nil, fmt.Errorf("read of %s: %w", e.k, e.err)
			}
			out[e.k] = e.v
		case <-timeout:
			return nil, fmt.Errorf("reading every key: %d of %d answered in 60s", len(out), g.Keys())
		}
	}
	return out, nil
}

// rebootCheck is the durability gate: stop the cluster the way a kill
// would (storage is not closed, so whatever the WAL had not synced is
// gone), boot a new cluster on the same directories, and require every
// key to read back what it read before. An acknowledged write that the
// WAL lost shows as a difference.
func (l *live) rebootCheck() ([]string, error) {
	defer l.removeData()
	before, err := readAll(l.c, l.e.g)
	if err != nil {
		l.c.Stop()
		return nil, fmt.Errorf("before restart: %w", err)
	}
	l.c.Stop()
	c2, err := sut.Boot(l.w.spec(l.dataRoot, nil))
	if err != nil {
		return nil, fmt.Errorf("restart from the same WAL directories: %w", err)
	}
	after, err := readAll(c2, l.e.g)
	c2.Stop()
	if cerr := c2.CloseStorage(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	var lost []string
	for k, v := range before {
		if after[k] != v && len(lost) < maxViolations {
			lost = append(lost, fmt.Sprintf("key %s read %q before the restart and %q after it", k, v, after[k]))
		}
	}
	return lost, nil
}
