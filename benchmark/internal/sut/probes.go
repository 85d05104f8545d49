package sut

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hquorum/benchmark/internal/stats"
	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/transport"
	"hquorum/internal/wal"
)

// The isolated probes call one layer's public functions directly. They
// are seeded and, where the layer allows it, single-goroutine, so the
// counted metrics (per-message allocations and bytes, quorum sizes,
// load, bytes per WAL record) repeat exactly from run to run and can
// back count-based claims. Their timings are this sandbox's.

// ProbeUnits names every probe metric and its unit.
var ProbeUnits = map[string]string{
	"codec.encode_ns_per_msg": "ns",
	"codec.decode_ns_per_msg": "ns",
	"codec.allocs_per_msg":    "count",
	"codec.bytes_per_msg":     "B",

	"transport.hop_p50_us": "us",
	"transport.hop_cpu_us": "us",

	"epoch.pick_read_ns":                   "ns",
	"epoch.pick_write_ns":                  "ns",
	"epoch.read_quorum_size_mean":          "count",
	"epoch.write_quorum_size_mean":         "count",
	"epoch.read_quorum_size_mean_susp2":    "count",
	"epoch.write_quorum_size_mean_susp2":   "count",
	"epoch.pick_load_max":                  "%",
	"epoch.wan_cross_region_members_mean":  "count",
	"epoch.wan_cross_region_members_blind": "count",

	"wal.commit_p50_us":        "us",
	"wal.commit_p99_us":        "us",
	"wal.fsync_p50_us":         "us",
	"wal.replay_records_per_s": "1/s",
	"wal.bytes_per_record":     "B",

	"lease.covered_ns": "ns",

	"gateway.stub_ops_per_s":     "1/s",
	"gateway.stub_p50_us":        "us",
	"gateway.stub_cpu_us_per_op": "us",
}

// Frame is one message captured on its way to a node.
type Frame struct {
	From int
	Msg  any
}

// captureHandler records every delivery and forwards it.
type captureHandler struct {
	cluster.Handler
	out *[]Frame
}

func (h captureHandler) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	*h.out = append(*h.out, Frame{From: int(from), Msg: msg})
	h.Handler.Deliver(env, from, msg)
}

// CaptureFrames runs the given operations (one full batch of writes and
// one of reads is the intended input) through one session of the fixed
// system on the deterministic simulator and returns every message
// delivered, in order: the exact frames, sizes and mix of a quorum
// round on this workload. The product's message types are private, so
// capturing them is the only way to hold one; the simulator makes the
// capture repeat exactly.
func CaptureFrames(ops []Op) ([]Frame, error) {
	net := cluster.New(cluster.WithSeed(1))
	var frames []Frame
	universe := Members + 1
	for i := 0; i < universe; i++ {
		node, err := newSimNode(i, universe)
		if err != nil {
			return nil, err
		}
		if err := net.AddNode(cluster.NodeID(i), captureHandler{node, &frames}); err != nil {
			return nil, err
		}
		if i == Members {
			id := cluster.NodeID(i)
			node.SetWake(func() { net.StartTimer(id, 0, node.StartToken()) })
			failed := 0
			for _, op := range ops {
				submitter{node}.Submit(op, func(r Result) {
					if r.Err != nil {
						failed++
					}
				})
			}
			defer func() {
				if failed > 0 {
					frames = nil
				}
			}()
		}
	}
	net.RunAll()
	if len(frames) == 0 {
		return nil, fmt.Errorf("frame capture: the simulated rounds failed or sent nothing")
	}
	return frames, nil
}

type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// mallocs counts heap allocations across fn with the scheduler pinned
// to one thread, like testing.AllocsPerRun: the integer division drops
// the stray allocation a background goroutine may add.
func mallocs(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return (b.Mallocs - a.Mallocs) / uint64(runs)
}

// ProbeCodec encodes and decodes the captured frames through the
// product's binary registry.
func ProbeCodec(frames []Frame) (map[string]float64, error) {
	reg := newRegistry()
	const passes = 2000
	sink := &discard{}
	enc := codec.NewEncoder(sink, reg)
	encodeAll := func() {
		for _, f := range frames {
			if _, err := enc.Encode(uint64(f.From), f.Msg); err != nil {
				panic(err) // a captured frame that cannot be re-encoded is a bug here
			}
		}
	}
	encodeAll()
	bytesPerPass := sink.n
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		encodeAll()
	}
	encNs := float64(time.Since(t0)) / float64(passes*len(frames))
	encAllocs := mallocs(100, encodeAll)

	var wire bytes.Buffer
	wenc := codec.NewEncoder(&wire, reg)
	const copies = 64
	for i := 0; i < copies; i++ {
		for _, f := range frames {
			if _, err := wenc.Encode(uint64(f.From), f.Msg); err != nil {
				return nil, err
			}
		}
	}
	var decErr error
	decodeAll := func() {
		dec := codec.NewDecoder(bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), 64<<10), reg)
		for {
			if _, _, err := dec.Decode(); err != nil {
				if err != io.EOF {
					decErr = err
				}
				return
			}
		}
	}
	t0 = time.Now()
	const decPasses = passes / copies
	for i := 0; i < decPasses; i++ {
		decodeAll()
	}
	decNs := float64(time.Since(t0)) / float64(decPasses*copies*len(frames))
	decAllocs := mallocs(20, decodeAll)
	if decErr != nil {
		return nil, fmt.Errorf("codec probe: decode: %w", decErr)
	}
	return map[string]float64{
		"codec.encode_ns_per_msg": encNs,
		"codec.decode_ns_per_msg": decNs,
		"codec.allocs_per_msg":    float64(encAllocs)/float64(len(frames)) + float64(decAllocs)/float64(copies*len(frames)),
		"codec.bytes_per_msg":     float64(bytesPerPass) / float64(len(frames)),
	}, nil
}

// echo answers every message on the transport's fast path, the way a
// replica answers a quorum request.
type echo struct{}

func (echo) Deliver(env cluster.Env, from cluster.NodeID, msg any) { env.Send(from, msg) }
func (echo) Timer(cluster.Env, any)                                {}
func (echo) FastDeliver(env cluster.Env, from cluster.NodeID, msg any) bool {
	env.Send(from, msg)
	return true
}

// pinger sends one frame, waits for the echo on its event loop (where a
// coordinator receives replies), and repeats: depth 1.
type pinger struct {
	frame any
	left  int
	t0    time.Time
	rtts  []int64
	done  chan struct{}
}

func (p *pinger) Timer(env cluster.Env, _ any) {
	p.t0 = time.Now()
	env.Send(1, p.frame)
}

func (p *pinger) Deliver(env cluster.Env, _ cluster.NodeID, _ any) {
	now := time.Now()
	p.rtts = append(p.rtts, int64(now.Sub(p.t0)))
	if p.left--; p.left == 0 {
		close(p.done)
		return
	}
	p.t0 = now
	env.Send(1, p.frame)
}

// ProbeHop echoes the largest captured frame between two nodes of a
// loopback-TCP mesh.
func ProbeHop(frames []Frame) (map[string]float64, error) {
	const rounds = 4000
	reg := newRegistry()
	var frame any
	best := -1
	for _, f := range frames {
		sink := &discard{}
		if _, err := codec.NewEncoder(sink, reg).Encode(0, f.Msg); err != nil {
			return nil, err
		}
		if sink.n > best {
			best, frame = sink.n, f.Msg
		}
	}
	p := &pinger{frame: frame, left: rounds, done: make(chan struct{})}
	mesh, err := transport.NewMesh([]cluster.Handler{p, echo{}})
	if err != nil {
		return nil, err
	}
	defer mesh.Close()
	mesh.Start()
	cpu0 := stats.CPUTime()
	mesh.Node(0).Kick(0, nil)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("transport hop probe: %d of %d echoes in 30s", len(p.rtts), rounds)
	}
	cpu := stats.CPUTime() - cpu0
	sort.Slice(p.rtts, func(i, j int) bool { return p.rtts[i] < p.rtts[j] })
	return map[string]float64{
		"transport.hop_p50_us": stats.Quantile(p.rtts, 0.5) / 2 / 1e3,
		"transport.hop_cpu_us": float64(cpu.Nanoseconds()) / 1e3 / (2 * rounds),
	}, nil
}

// epochSeed seeds the pick probe. It is fixed, not taken from --seed:
// the picks are not workload input, and a fixed seed makes the counted
// results (sizes, load) read the same on every run.
const epochSeed = 1

// ProbeEpoch draws seeded quorum picks from the installed construction.
func ProbeEpoch() (map[string]float64, error) {
	const seed = epochSeed
	pk, err := newPickers()
	if err != nil {
		return nil, err
	}
	const picks = 100_000
	type tally struct {
		ns      float64
		size    float64
		loadMax float64
	}
	run := func(pick func(*rand.Rand, bitset.Set) (bitset.Set, error), live bitset.Set, seed int64) (tally, error) {
		rng := rand.New(rand.NewSource(seed))
		var members [Members]int
		total := 0
		t0 := time.Now()
		for i := 0; i < picks; i++ {
			q, err := pick(rng, live)
			if err != nil {
				return tally{}, err
			}
			q.ForEach(func(m int) { members[m]++; total++ })
		}
		t := tally{ns: float64(time.Since(t0)) / picks, size: float64(total) / picks}
		for _, n := range members {
			if l := float64(n) / picks; l > t.loadMax {
				t.loadMax = l
			}
		}
		return t, nil
	}
	all := bitset.Universe(Members)
	susp := bitset.Universe(Members)
	susp.Remove(5)
	susp.Remove(10)
	out := map[string]float64{}
	for _, c := range []struct {
		name string
		pick func(*rand.Rand, bitset.Set) (bitset.Set, error)
		live bitset.Set
	}{
		{"read", pk.Read, all}, {"write", pk.Write, all},
		{"read_susp2", pk.Read, susp}, {"write_susp2", pk.Write, susp},
	} {
		t, err := run(c.pick, c.live, seed)
		if err != nil {
			return nil, fmt.Errorf("epoch probe %s: %w", c.name, err)
		}
		switch c.name {
		case "read":
			out["epoch.pick_read_ns"], out["epoch.read_quorum_size_mean"] = t.ns, t.size
		case "write":
			out["epoch.pick_write_ns"], out["epoch.write_quorum_size_mean"] = t.ns, t.size
			out["epoch.pick_load_max"] = 100 * t.loadMax
		case "read_susp2":
			out["epoch.read_quorum_size_mean_susp2"] = t.size
		case "write_susp2":
			out["epoch.write_quorum_size_mean_susp2"] = t.size
		}
	}

	// The wan3 cost vector: how many members outside the sessions'
	// region a pick drags in, picking blind and picking the cheapest of
	// eight candidates by rkv's rule (slowest member, then total).
	regionOf, err := wanPlacement()
	if err != nil {
		return nil, err
	}
	_, cost := wanLinks(regionOf)
	score := func(q bitset.Set) (max, sum time.Duration, cross int) {
		q.ForEach(func(m int) {
			sum += cost[m]
			if cost[m] > max {
				max = cost[m]
			}
			if regionOf[m] != 0 {
				cross++
			}
		})
		return max, sum, cross
	}
	const wanPicks = 20_000
	rng := rand.New(rand.NewSource(seed))
	var blind, aware int
	for i := 0; i < wanPicks; i++ {
		pick := pk.Read
		if i%2 == 1 {
			pick = pk.Write
		}
		q, err := pick(rng, all)
		if err != nil {
			return nil, err
		}
		bestMax, bestSum, bestCross := score(q)
		blind += bestCross
		for s := 1; s < 8; s++ {
			alt, err := pick(rng, all)
			if err != nil {
				return nil, err
			}
			if m, sum, cross := score(alt); m < bestMax || (m == bestMax && sum < bestSum) {
				bestMax, bestSum, bestCross = m, sum, cross
			}
		}
		aware += bestCross
	}
	out["epoch.wan_cross_region_members_blind"] = float64(blind) / wanPicks
	out["epoch.wan_cross_region_members_mean"] = float64(aware) / wanPicks
	return out, nil
}

// ProbeWAL commits workload-sized records from eight committers and
// from one, then reopens the log and replays it. The fsyncs are this
// sandbox's file system, not a device.
func ProbeWAL(workDir string, value string) (map[string]float64, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("walprobe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	l, err := openWAL(dir)
	if err != nil {
		return nil, err
	}
	commit := func(l *wal.Log, committer, i int) (int64, error) {
		key := fmt.Sprintf("k%04d", (committer*997+i)%4096)
		t0 := time.Now()
		err := l.Commit(walPut(i%16, key, uint64(i+1), value))
		return int64(time.Since(t0)), err
	}
	const committers, each = 8, 60
	lat := make([][]int64, committers)
	errs := make([]error, committers)
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ns, err := commit(l, c, i)
				if err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], ns)
			}
		}(c)
	}
	wg.Wait()
	var group []int64
	for c := range lat {
		if errs[c] != nil {
			l.Close(nil)
			return nil, fmt.Errorf("wal probe: %w", errs[c])
		}
		group = append(group, lat[c]...)
	}
	before := l.Stats()
	const solo = 150
	var single []int64
	for i := 0; i < solo; i++ {
		ns, err := commit(l, 0, each+i)
		if err != nil {
			l.Close(nil)
			return nil, fmt.Errorf("wal probe: %w", err)
		}
		single = append(single, ns)
	}
	after := l.Stats()
	if err := l.Close(nil); err != nil {
		return nil, fmt.Errorf("wal probe: close: %w", err)
	}
	l, err = openWAL(dir)
	if err != nil {
		return nil, err
	}
	replayed := 0
	t0 := time.Now()
	err = l.Replay(func(wal.Record) { replayed++ })
	took := time.Since(t0)
	l.Close(nil)
	if err != nil {
		return nil, fmt.Errorf("wal probe: replay: %w", err)
	}
	if want := committers*each + solo; replayed != want {
		return nil, fmt.Errorf("wal probe: replayed %d records, committed %d", replayed, want)
	}
	sort.Slice(group, func(i, j int) bool { return group[i] < group[j] })
	sort.Slice(single, func(i, j int) bool { return single[i] < single[j] })
	return map[string]float64{
		"wal.commit_p50_us":        stats.Quantile(group, 0.5) / 1e3,
		"wal.commit_p99_us":        stats.Quantile(group, 0.99) / 1e3,
		"wal.fsync_p50_us":         stats.Quantile(single, 0.5) / 1e3,
		"wal.replay_records_per_s": float64(replayed) / took.Seconds(),
		"wal.bytes_per_record":     float64(after.Bytes-before.Bytes) / float64(after.Appends-before.Appends),
	}, nil
}

// ProbeLease times the member-side check every write makes: which
// shards of a 16-shard table are covered.
func ProbeLease() map[string]float64 {
	t := newLeaseTable(0)
	const n = 2_000_000
	var sink uint64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink |= t.Covered(16, time.Duration(i))
	}
	ns := float64(time.Since(t0)) / n
	if sink == 0 {
		ns = 0 // the table was built covered; an empty mask means the probe is broken
	}
	return map[string]float64{"lease.covered_ns": ns}
}

// ProbeGateway runs the gateway over a session that completes at once,
// under the gw-lease-read client shape (2 connections, 32 deep): what
// the gateway tier alone costs, and the ceiling for anything served
// through it. op supplies operation i of a connection.
func ProbeGateway(op func(conn, i int) Op) (map[string]float64, error) {
	const (
		conns = 2
		depth = 32
		dur   = 1200 * time.Millisecond
	)
	gw, err := serveStub(depth)
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	type lane struct {
		lat []int64
		err error
	}
	lanes := make([]lane, conns*depth)
	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	cpu0, t0 := stats.CPUTime(), time.Now()
	for c := 0; c < conns; c++ {
		cl, err := dialStub(gw)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		for d := 0; d < depth; d++ {
			wg.Add(1)
			go func(c, d int) {
				defer wg.Done()
				ln := &lanes[c*depth+d]
				for i := d; time.Now().Before(stop); i += depth {
					s := time.Now()
					if _, err := cl.Do(toRKV(op(c, i))); err != nil {
						ln.err = err
						return
					}
					ln.lat = append(ln.lat, int64(time.Since(s)))
				}
			}(c, d)
		}
	}
	wg.Wait()
	took, cpu := time.Since(t0), stats.CPUTime()-cpu0
	var all []int64
	for i := range lanes {
		if lanes[i].err != nil {
			return nil, fmt.Errorf("gateway probe: %w", lanes[i].err)
		}
		all = append(all, lanes[i].lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return map[string]float64{
		"gateway.stub_ops_per_s":     float64(len(all)) / took.Seconds(),
		"gateway.stub_p50_us":        stats.Quantile(all, 0.5) / 1e3,
		"gateway.stub_cpu_us_per_op": float64(cpu.Nanoseconds()) / 1e3 / float64(len(all)),
	}, nil
}
