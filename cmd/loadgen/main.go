// Command loadgen drives the replicated store with closed-loop clients
// and reports throughput plus latency quantiles from an HDR-style
// histogram. It is the measurement half of the live-path engine: the wire
// codec, send coalescing, op pipelining and multi-key batching exist to
// move these numbers.
//
// Two transports bound the measurement from both sides:
//
//   - tcp: a real loopback-TCP mesh (cmd/kvd's deployment path) — frames,
//     bufio coalescing, syscalls. What a deployment would see.
//   - mem: the same Handler/Env protocol code over in-process channels —
//     no sockets, no frames. The protocol-scheduling ceiling; the gap
//     between mem and tcp is the transport's cost.
//
// -mode disk is tcp with durable replicas: every node runs the WAL
// storage backend in a temporary directory with real fsyncs, so the
// gap between tcp and disk prices the durability guarantee (group
// commit amortizes it — one fsync covers a whole batch).
//
// Clients are closed-loop with a configurable window and batch: each
// client node keeps up to -window quorum rounds in flight, each round
// coalescing up to -batch consecutive operations (one quorum pick, one
// frame per peer, K keys amortized). The workload spans -keys keys drawn
// uniformly or zipfian (-zipf); keys=1 is the paper's single register.
//
// The headline experiment is -suite, which runs tcp/window=1, tcp/window=8,
// the batched multi-key cell tcp/w8/k64b8 and their mem counterparts back
// to back and reports the pipelining and batching speedups;
// scripts/bench_live.sh wraps it, keeps the result as a JSON artifact, and
// fails on regressions beyond -tolerance against the committed baseline.
// -suite-batch and -suite-keys sweep batch size and keyspace size so the
// JSON records throughput per batch size and per key count. -suite-tune
// runs the workload-aware auto-tuner pair: a 50/50 mix that shifts to 95%
// reads mid-run, once with kvd-style -auto-tune re-shaping the cluster
// live and once holding majority, gated on a clean swap and ≥1.3x
// post-shift throughput. -suite-lease runs the read-lease pair: a
// 90%-read workload with and without per-shard read leases on the client
// node, gated on ≥2x throughput and strictly fewer messages per op — the
// local-read path must demonstrably skip quorum rounds.
//
// Usage:
//
//	loadgen -suite -json BENCH_live.json
//	loadgen -mode tcp -window 8 -keys 64 -batch 8 -zipf 1.2 -ops 4000
//	loadgen -suite -suite-batch -suite-keys -compare scripts/BENCH_live_baseline.json -tolerance 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/histo"
	"hquorum/internal/lease"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
	"hquorum/internal/tuner"
)

type runSpec struct {
	Name    string
	Mode    string // "tcp" or "mem"
	Store   string // "hgrid", "htgrid", "majority"
	Rows    int
	Cols    int
	Clients int
	Ops     int // operations per client
	Window  int
	Batch   int     // ops coalesced per quorum round
	Keys    int     // keyspace size (1 = single register)
	Zipf    float64 // key skew (0 = uniform, else > 1)
	Reads   float64 // fraction of reads in the workload
	Value   int     // write value size in bytes
	Seed    int64
	Shards  int // replica store shards (0 = rkv default)

	Writeback  bool
	Timeout    time.Duration
	OpDeadline time.Duration
	RunTimeout time.Duration

	// ReconfigAt, when positive, makes the cluster epoch-versioned (the
	// nodes start on Store as their initial config) and fires a live swap
	// to ReconfigTo once that many operations have completed cluster-wide.
	// tcp mode only.
	ReconfigAt int
	ReconfigTo string

	// ShiftReads, when positive, makes every client switch its read
	// fraction from Reads to ShiftReads halfway through its op list — the
	// mid-run mix shift the auto-tuner cells react to. The cluster runs
	// epoch-versioned (tcp mode only) and the result splits throughput at
	// the shift point. AutoTune additionally runs the workload-aware
	// tuner on node 0, which must detect the new mix and re-shape the
	// cluster live.
	ShiftReads float64
	AutoTune   bool

	// Lease arms the read-lease holder on node 0 (tcp mode only): once
	// the workload window measures read-heavy, the node acquires
	// per-shard leases and serves its reads locally with zero messages,
	// while its writes keep the lease fresh via self-apply.
	Lease bool

	// Gateway mode: Clients lightweight connections multiplex onto
	// Sessions shared rkv sessions behind a gateway tier; Inflight is the
	// closed-loop pipelining depth per client connection.
	Sessions int
	Inflight int

	// Optional 3-region-style WAN topology (gateway mode): node counts
	// per region (summing to Rows*Cols); the gateway, its sessions and
	// every client live in region 0. Links inside a region cost WanIntra
	// one-way, links across regions WanCross. Grid flavors place nodes
	// onto the hierarchy with epoch.PlaceGrid; sessions pick the
	// cheapest quorum (rkv PickCost).
	Regions  []int
	WanIntra time.Duration
	WanCross time.Duration

	// TraceSample arms the server-side op tracer on every node (and the
	// gateway) at 1-in-N sampling; the merged stage snapshot is stamped
	// into the cell's result so the archived artifact explains where
	// server time went, not just how much there was.
	TraceSample int

	// Trials, when > 1, runs the cell that many times, interleaved with
	// the other multi-trial cells, and reports one representative run:
	// the highest-throughput one, or the median-p99 one when TailCell is
	// set (a latency gate should see typical tails — a single lucky or
	// unlucky draw on either side would decide it otherwise). Single
	// co-sampled runs on a small machine confound gates with GC and
	// scheduler noise.
	Trials   int
	TailCell bool
}

// runResult is one benchmark cell, JSON-stable for diffing against a
// committed baseline. Keys and Batch make the per-key-count and
// per-batch-size sweeps self-describing in the artifact.
type runResult struct {
	Name      string  `json:"name"`
	Mode      string  `json:"mode"`
	Window    int     `json:"window"`
	Batch     int     `json:"batch"`
	Keys      int     `json:"keys"`
	Zipf      float64 `json:"zipf,omitempty"`
	Clients   int     `json:"clients"`
	Nodes     int     `json:"nodes"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     float64 `json:"p50_us"`
	P95us     float64 `json:"p95_us"`
	P99us     float64 `json:"p99_us"`
	P999us    float64 `json:"p999_us"`
	MaxUs     float64 `json:"max_us"`
	MeanUs    float64 `json:"mean_us"`
	// ReadFrac stamps the cell's configured read fraction so compare()
	// can refuse to gate throughput across differing mixes; ShiftReadFrac
	// is the post-shift fraction of mix-shift cells. ReadOps/WriteOps and
	// the per-kind quantiles split the latency picture by operation kind
	// (reads and writes traverse different quorum paths, so one merged
	// histogram hides the asymmetry the tuner exploits).
	ReadFrac      float64 `json:"read_frac,omitempty"`
	ShiftReadFrac float64 `json:"shift_read_frac,omitempty"`
	ReadOps       int     `json:"read_ops,omitempty"`
	WriteOps      int     `json:"write_ops,omitempty"`
	ReadP50us     float64 `json:"read_p50_us,omitempty"`
	ReadP99us     float64 `json:"read_p99_us,omitempty"`
	WriteP50us    float64 `json:"write_p50_us,omitempty"`
	WriteP99us    float64 `json:"write_p99_us,omitempty"`
	// Transport counters (zero in mem mode: no frames, no flushes).
	MsgsSent uint64 `json:"msgs_sent"`
	BytesOut uint64 `json:"bytes_out"`
	Flushes  uint64 `json:"flushes"`
	// Reconfiguration cell fields (zero unless -reconfig-at fired): the
	// throughput before and after the swap was kicked, the number of
	// operations that failed during the transition window, and the epoch
	// the cluster settled at.
	ReconfigAt     int     `json:"reconfig_at,omitempty"`
	PreOpsPerSec   float64 `json:"pre_ops_per_sec,omitempty"`
	PostOpsPerSec  float64 `json:"post_ops_per_sec,omitempty"`
	TransitionErrs int     `json:"transition_errs,omitempty"`
	FinalEpoch     uint64  `json:"final_epoch,omitempty"`
	// Gateway cell fields (zero in direct modes).
	Sessions  int    `json:"sessions,omitempty"`
	GwShed    uint64 `json:"gw_shed,omitempty"`
	GwRetries uint64 `json:"gw_retries,omitempty"`
	// Lease cell fields (zero unless -lease/-suite-lease armed the
	// holder): summed across nodes, so InvalRounds counts every writer's
	// barrier rounds, not just the holder's.
	LeaseGrants      uint64 `json:"lease_grants,omitempty"`
	LeaseLocalReads  uint64 `json:"lease_local_reads,omitempty"`
	LeaseInvalRounds uint64 `json:"lease_inval_rounds,omitempty"`
	LeaseExpiries    uint64 `json:"lease_expiries,omitempty"`
	// Server-side stage breakdown (package optrace), merged across every
	// node's tracer after the run: nonzero stages only, wire payloads
	// stripped — the artifact explains the cell's latency, it is not a
	// further merge input. TraceSampled is how many ops the 1-in-N
	// sampler actually traced.
	TraceSampled uint64                       `json:"trace_sampled,omitempty"`
	Stages       map[string]optrace.StageStat `json:"stages,omitempty"`
}

// report is the artifact bench_live.sh writes: the suite cells plus the
// headline ratios the acceptance gates read.
type report struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// CPUs is the machine's logical CPU count; GOMAXPROCS is what the Go
	// scheduler was actually allowed to use for this run. Both are
	// recorded because throughput numbers are meaningless across
	// differing CPU budgets — compare() refuses to gate in that case.
	CPUs            int     `json:"cpus"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	PipelineSpeedup float64 `json:"pipeline_speedup"` // tcp window=8 vs window=1
	BatchSpeedup    float64 `json:"batch_speedup"`    // tcp w8/k64b8 vs w8 single-key
	// GatewayEfficiency is gateway-mode throughput over the equivalent
	// direct-session cell; WanP99* are the 3-region tail-latency cells'
	// p99s, one per flavor — each hierarchical flavor is gated against
	// majority on its own, so neither can hide behind the other.
	GatewayEfficiency float64 `json:"gateway_efficiency,omitempty"`
	WanP99HGridUs     float64 `json:"wan_p99_hgrid_us,omitempty"`
	WanP99HTGridUs    float64 `json:"wan_p99_htgrid_us,omitempty"`
	WanP99MajorityUs  float64 `json:"wan_p99_majority_us,omitempty"`
	// TuneSpeedup is the auto-tuner pair's post-shift throughput ratio:
	// the self-reconfiguring cell over the one that stays on majority.
	TuneSpeedup float64 `json:"tune_speedup,omitempty"`
	// LeaseSpeedup is the read-lease pair's throughput ratio: the leased
	// 90%-read cell over the identical mix on the plain quorum path.
	LeaseSpeedup float64 `json:"lease_speedup,omitempty"`
	// ServerTrace is a live kvd node's optrace snapshot fetched from its
	// -metrics-addr endpoint after the run (only when loadgen was pointed
	// at one with its own -metrics-addr flag) — the deployment-side
	// counterpart of the per-cell Stages stamp.
	ServerTrace *optrace.Snapshot `json:"server_trace,omitempty"`
	Runs        []runResult       `json:"runs"`
}

func main() {
	mode := flag.String("mode", "tcp", "transport: tcp (loopback mesh), mem (in-process ceiling), disk (tcp with WAL-durable replicas, real fsyncs) or gateway (clients multiplexed onto shared sessions)")
	store := flag.String("store", "hgrid", "quorum store: hgrid, htgrid or majority")
	rows := flag.Int("rows", 4, "grid rows")
	cols := flag.Int("cols", 4, "grid cols")
	clients := flag.Int("clients", 1, "nodes that run a client workload (the rest are pure replicas)")
	ops := flag.Int("ops", 2000, "operations per client")
	window := flag.Int("window", 1, "client quorum rounds in flight per node")
	batch := flag.Int("batch", 1, "consecutive operations coalesced into one quorum round")
	keys := flag.Int("keys", 1, "keyspace size (1 = the classic single register)")
	zipf := flag.Float64("zipf", 0, "zipfian key skew s (0 = uniform; otherwise must be > 1)")
	reads := flag.Float64("reads", 0.5, "fraction of operations that are reads")
	flag.Float64Var(reads, "read-frac", 0.5, "alias of -reads")
	valueSize := flag.Int("value-size", 16, "write value size in bytes")
	seed := flag.Int64("seed", 1, "workload rng seed")
	shards := flag.Int("shards", 0, "replica store shard count (0 = rkv default)")
	reconfigAt := flag.Int("reconfig-at", 0, "fire a live config swap after this many completed operations (0 = off; tcp mode only)")
	reconfigTo := flag.String("reconfig-to", "htgrid", "target quorum flavor for -reconfig-at (majority, hgrid or htgrid; same grid shape)")
	sessions := flag.Int("sessions", 4, "gateway mode: shared quorum sessions behind the gateway")
	inflight := flag.Int("inflight", 1, "gateway mode: concurrent operations per client connection")
	regions := flag.String("regions", "", "gateway mode: WAN topology as node counts per region, e.g. 8,4,4 (empty = flat LAN)")
	wanIntra := flag.Duration("wan-intra", 200*time.Microsecond, "one-way latency inside a region (-regions)")
	wanCross := flag.Duration("wan-cross", 10*time.Millisecond, "one-way latency across regions (-regions)")
	writeback := flag.Bool("writeback", true, "linearizable reads (ABD write-back)")
	timeout := flag.Duration("timeout", 500*time.Millisecond, "per-attempt quorum patience")
	opDeadline := flag.Duration("op-deadline", 15*time.Second, "per-operation deadline")
	runTimeout := flag.Duration("run-timeout", 2*time.Minute, "hard wall-clock bound per benchmark run")
	suite := flag.Bool("suite", false, "run the headline suite (tcp/w1, tcp/w8, tcp/w8/k64b8, mem/w8, mem/w8/k64b8, tcp/w8/k64b8/disk)")
	suiteBatch := flag.Bool("suite-batch", false, "sweep batch sizes 1,2,4,8,16 at keys=64 window=8 (tcp)")
	suiteKeys := flag.Bool("suite-keys", false, "sweep key counts 1,4,16,64,256 at batch=8 window=8 (tcp)")
	suiteGW := flag.Bool("suite-gw", false, "run the gateway efficiency pair (128 client streams direct-to-session vs through the gateway) and gate ≥0.7x")
	suiteWAN := flag.Bool("suite-wan", false, "run the 3-region tail-latency cells (1000 gateway clients; majority vs hgrid vs htgrid) and gate each hierarchy's p99 < majority p99")
	suiteTune := flag.Bool("suite-tune", false, "run the auto-tuner pair (mid-run 50/50→95%-read shift, kvd-style -auto-tune vs staying on majority) and gate the live swap + ≥1.3x post-shift throughput")
	suiteLease := flag.Bool("suite-lease", false, "run the read-lease pair (90%-read workload with and without the holder's local-read leases) and gate ≥2x throughput + strictly fewer msgs/op")
	leaseOn := flag.Bool("lease", false, "arm the read-lease holder on node 0 (tcp mode only)")
	traceSample := flag.Int("trace-sample", 64, "server-side op tracing: sample 1 in N ops per node (0 = off); stamps the per-stage breakdown into the report")
	stageSanity := flag.String("stage-sanity", "", "assert the named cell's server stage medians sum ≤ its client p50 and ≥5 stages saw samples (e.g. tcp/w8/k64b8)")
	metricsAddr := flag.String("metrics-addr", "", "fetch a running kvd node's /metrics after the run and stamp its optrace snapshot into the report")
	jsonPath := flag.String("json", "", "write the report as JSON to this file")
	comparePath := flag.String("compare", "", "baseline report JSON to compare against")
	tolerance := flag.Float64("tolerance", 0.10, "max fractional ops/s regression vs -compare baseline before exiting nonzero")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the whole run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "loadgen: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *zipf != 0 && *zipf <= 1 {
		fatal("-zipf must be 0 (uniform) or > 1 (rand.Zipf's domain), got %v", *zipf)
	}
	if *keys < 1 || *batch < 1 || *window < 1 {
		fatal("-keys, -batch and -window must be positive")
	}
	var regionCounts []int
	if *regions != "" {
		for _, part := range strings.Split(*regions, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fatal("-regions wants positive node counts like 8,4,4, got %q", part)
			}
			regionCounts = append(regionCounts, v)
		}
	}

	base := runSpec{
		Mode: *mode, Store: *store, Rows: *rows, Cols: *cols,
		Clients: *clients, Ops: *ops, Window: *window,
		Batch: *batch, Keys: *keys, Zipf: *zipf,
		Reads: *reads, Value: *valueSize, Seed: *seed, Shards: *shards,
		Writeback: *writeback, Timeout: *timeout,
		OpDeadline: *opDeadline, RunTimeout: *runTimeout,
		ReconfigAt: *reconfigAt, ReconfigTo: *reconfigTo,
		Sessions: *sessions, Inflight: *inflight,
		Regions: regionCounts, WanIntra: *wanIntra, WanCross: *wanCross,
		Lease: *leaseOn, TraceSample: *traceSample,
	}

	rep := report{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var specs []runSpec
	cell := func(mode string, window, keys, batch int) runSpec {
		s := base
		s.Mode, s.Window, s.Keys, s.Batch = mode, window, keys, batch
		s.ReconfigAt = 0 // sweep cells never reconfigure; the rc cell opts in below
		s.Name = cellName(mode, window, keys, batch)
		// Every gated cell reports best-of-3 interleaved trials: the
		// committed baseline then holds peak estimates, and the -compare
		// tolerance judges peak against peak instead of whichever noise
		// each run happened to sample.
		s.Trials = 3
		return s
	}
	if *suite {
		specs = append(specs,
			cell("tcp", 1, 1, 1),
			cell("tcp", 8, 1, 1),
			cell("tcp", 8, 64, 8),
			cell("mem", 8, 1, 1),
			cell("mem", 8, 64, 8),
		)
		// Durable cell: the batched multi-key workload with every replica on
		// the disk WAL backend and real fsyncs — the throughput delta against
		// tcp/w8/k64b8 prices durability, bounded by group commit (one fsync
		// per quorum round, not per op).
		d := cell("disk", 8, 64, 8)
		d.Name = "tcp/w8/k64b8/disk"
		specs = append(specs, d)
		// Steady-state-after-reconfig cell: start on majority, swap to the
		// h-T-grid a quarter of the way in, and let the remaining three
		// quarters measure the post-swap steady state. Gated against the
		// committed baseline like every other cell.
		rc := cell("tcp", 8, 1, 1)
		rc.Name = "tcp/w8/rc"
		rc.Store = "majority"
		rc.ReconfigAt = rc.Clients * rc.Ops / 4
		rc.ReconfigTo = "htgrid"
		specs = append(specs, rc)
	}
	if *suiteBatch {
		for _, b := range []int{1, 2, 4, 8, 16} {
			specs = append(specs, cell("tcp", 8, 64, b))
		}
	}
	if *suiteKeys {
		for _, k := range []int{1, 4, 16, 64, 256} {
			specs = append(specs, cell("tcp", 8, k, 8))
		}
	}
	if *suiteGW {
		// The efficiency pair: 128 closed-loop client streams (16
		// connections × 8 in-flight) over the identical 16-replica +
		// 1-session cluster, once submitting in-process (mode "session")
		// and once through the gateway wire. The ratio isolates what the
		// gateway tier costs — TCP framing, the fairness ring, token
		// admission — and the gate below insists it keeps ≥70% of
		// direct-session throughput.
		// The ratio needs a steady state long enough to wash out connection
		// setup and first-batch warmup, so the pair gets a floor on its op
		// budget regardless of how small the sweep cells are.
		total := base.Clients * base.Ops
		if total < 120000 {
			total = 120000
		}
		sess := cell("session", 8, 64, 8)
		sess.Name = "sess/w8/k64b8/c16x8"
		sess.Sessions = 1
		sess.Clients = 16
		sess.Inflight = 8
		sess.Ops = (total + 15) / 16
		sess.Regions = nil
		sess.Trials = 5 // the gate compares best-of-5 on both sides
		specs = append(specs, sess)
		gw := sess
		gw.Mode = "gateway"
		gw.Name = "gw/w8/k64b8/c16x8"
		specs = append(specs, gw)
	}
	if *suiteWAN {
		// The tail-latency thesis on a simulated 3-region WAN: 1000
		// closed-loop clients, zipf-contended keys, identical topology and
		// session budget per flavor — only the quorum system differs.
		wanRegions := regionCounts
		if len(wanRegions) == 0 {
			wanRegions = []int{8, 4, 4}
		}
		for _, flavor := range []string{"majority", "hgrid", "htgrid"} {
			s := cell("gateway", 16, 64, 16)
			s.Name = "wan3/" + flavor + "/c1000"
			s.Store = flavor
			s.Rows, s.Cols = 4, 4
			s.Clients = 1000
			s.Ops = max(10, base.Ops/400)
			s.Sessions = 4
			s.Zipf = 1.1
			s.Regions = wanRegions
			s.WanIntra, s.WanCross = *wanIntra, *wanCross
			// The gate compares p99 tails across flavors: interleaved
			// best-of-3 (lowest p99) so one noisy stretch cannot decide it.
			s.Trials = 3
			s.TailCell = true
			specs = append(specs, s)
		}
	}
	if *suiteTune {
		// The self-tuning pair: identical 16-node clusters on majority under
		// a 50/50 mix that shifts to 95% reads halfway through. One cell
		// runs the workload-aware auto-tuner on node 0 (which must measure
		// the shift and re-shape the cluster to an asymmetric configuration
		// live), the other holds majority; the gate below compares their
		// post-shift throughput. Write-back is off so the read path's quorum
		// size — what the tuner optimizes — is what the cells measure.
		total := base.Clients * base.Ops
		if total < 600000 {
			total = 600000
		}
		tc := cell("tcp", 8, 64, 8)
		tc.Name = "tcp/w8/k64b8/tune"
		tc.Store = "majority"
		tc.Clients = 1
		tc.Ops = total
		tc.Reads = 0.5
		tc.ShiftReads = 0.95
		tc.Writeback = false
		tc.AutoTune = true
		specs = append(specs, tc)
		hold := tc
		hold.AutoTune = false
		hold.Name = "tcp/w8/k64b8/hold"
		specs = append(specs, hold)
	}
	if *suiteLease {
		// The read-lease pair: a single 90%-read client on the identical
		// 16-node cluster, once on the plain quorum read path and once
		// holding per-shard read leases (granted by the workload-window
		// policy once the mix measures read-heavy). The gate below wants
		// the leased cell ≥2x faster AND strictly cheaper on the wire —
		// the local-read path must actually skip quorum rounds, not just
		// win a scheduling lottery.
		total := base.Clients * base.Ops
		if total < 300000 {
			total = 300000
		}
		lr := cell("tcp", 8, 64, 8)
		lr.Name = "tcp/w8/k64b8/r90"
		lr.Clients = 1
		lr.Ops = total
		lr.Reads = 0.9
		specs = append(specs, lr)
		lc := lr
		lc.Name = "tcp/w8/k64b8/lease"
		lc.Lease = true
		specs = append(specs, lc)
	}
	if len(specs) == 0 {
		base.Name = cellName(base.Mode, base.Window, base.Keys, base.Batch)
		if base.ReconfigAt > 0 {
			base.Name += "/rc"
		}
		if base.Lease {
			base.Name += "/lease"
		}
		specs = []runSpec{base}
	} else {
		specs = dedupe(specs)
	}

	// One scratch histogram reused (histo.Reset) across every cell: the
	// merge target never reallocates its ~30KB bucket array per run.
	var scratch histo.Histogram
	// Cells run in rounds: round 0 runs every cell, later rounds only the
	// ones asking for more Trials. Interleaving a ratio pair's trials
	// (instead of exhausting one cell's, then the other's) makes both
	// sides sample the same stretches of machine noise, so a transient
	// slowdown cannot sink one side of the ratio alone.
	maxTrials := 1
	for _, spec := range specs {
		if spec.Trials > maxTrials {
			maxTrials = spec.Trials
		}
	}
	trials := make([][]runResult, len(specs))
	for t := 0; t < maxTrials; t++ {
		for i, spec := range specs {
			if t > 0 && t >= spec.Trials {
				continue
			}
			res, err := runOnce(spec, &scratch)
			if err != nil {
				fatal("%s (trial %d): %v", spec.Name, t+1, err)
			}
			trials[i] = append(trials[i], res)
		}
	}
	for i, spec := range specs {
		res := trials[i][0]
		if spec.TailCell {
			// Median p99 across trials: the representative tail.
			sorted := append([]runResult(nil), trials[i]...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a].P99us < sorted[b].P99us })
			res = sorted[len(sorted)/2]
		} else {
			for _, r := range trials[i][1:] {
				if r.OpsPerSec > res.OpsPerSec {
					res = r
				}
			}
		}
		printResult(res)
		rep.Runs = append(rep.Runs, res)
	}
	if w1, w8 := find(rep.Runs, "tcp/w1"), find(rep.Runs, "tcp/w8"); w1 != nil && w8 != nil && w1.OpsPerSec > 0 {
		rep.PipelineSpeedup = w8.OpsPerSec / w1.OpsPerSec
		fmt.Printf("\npipelining speedup (tcp, window 8 vs 1): %.2fx\n", rep.PipelineSpeedup)
	}
	if w8, kb := find(rep.Runs, "tcp/w8"), find(rep.Runs, "tcp/w8/k64b8"); w8 != nil && kb != nil && w8.OpsPerSec > 0 {
		rep.BatchSpeedup = kb.OpsPerSec / w8.OpsPerSec
		fmt.Printf("batching speedup (tcp/w8, 64 keys batch 8 vs single-key): %.2fx\n", rep.BatchSpeedup)
	}
	var gates []string
	if *suiteGW {
		si, gi := -1, -1
		for i := range specs {
			switch specs[i].Name {
			case "sess/w8/k64b8/c16x8":
				si = i
			case "gw/w8/k64b8/c16x8":
				gi = i
			}
		}
		if si >= 0 && gi >= 0 {
			// Matched-trial ratio: trial t of the two cells ran back to
			// back, so a transient machine slowdown hits both sides of
			// that pair; the best pair over the interleaved trials is the
			// closest estimate of the intrinsic gateway overhead.
			for t := 0; t < len(trials[gi]) && t < len(trials[si]); t++ {
				if d := trials[si][t].OpsPerSec; d > 0 {
					if r := trials[gi][t].OpsPerSec / d; r > rep.GatewayEfficiency {
						rep.GatewayEfficiency = r
					}
				}
			}
			fmt.Printf("gateway efficiency (128 muxed client streams vs direct sessions): %.2fx\n", rep.GatewayEfficiency)
			if rep.GatewayEfficiency < 0.7 {
				gates = append(gates, fmt.Sprintf("gateway efficiency %.2fx < 0.70x direct", rep.GatewayEfficiency))
			}
		}
	}
	if *suiteWAN {
		maj := find(rep.Runs, "wan3/majority/c1000")
		hg := find(rep.Runs, "wan3/hgrid/c1000")
		ht := find(rep.Runs, "wan3/htgrid/c1000")
		if maj != nil && hg != nil && ht != nil {
			rep.WanP99MajorityUs = maj.P99us
			rep.WanP99HGridUs, rep.WanP99HTGridUs = hg.P99us, ht.P99us
			fmt.Printf("3-region p99 tail (1000 clients): hgrid %s, htgrid %s vs majority %s\n",
				fmtUs(hg.P99us), fmtUs(ht.P99us), fmtUs(maj.P99us))
			for _, r := range []*runResult{hg, ht} {
				if r.P99us >= maj.P99us {
					gates = append(gates, fmt.Sprintf("%s p99 %s not better than majority %s on the 3-region WAN",
						r.Name, fmtUs(r.P99us), fmtUs(maj.P99us)))
				}
			}
		}
	}

	if *suiteTune {
		ti, hi := -1, -1
		for i := range specs {
			switch specs[i].Name {
			case "tcp/w8/k64b8/tune":
				ti = i
			case "tcp/w8/k64b8/hold":
				hi = i
			}
		}
		if ti >= 0 && hi >= 0 {
			// The swap itself must be clean on every trial — a tuner that
			// sometimes misses the shift or drops operations mid-transition
			// is broken, however fast its best run.
			for t, r := range trials[ti] {
				if r.FinalEpoch < 3 {
					gates = append(gates, fmt.Sprintf("auto-tune trial %d never completed a swap (settled epoch %d)", t+1, r.FinalEpoch))
				}
				if r.TransitionErrs != 0 {
					gates = append(gates, fmt.Sprintf("auto-tune trial %d: %d op errors after the mix shift", t+1, r.TransitionErrs))
				}
			}
			// Matched-trial post-shift ratio, like the gateway pair: trial t
			// of both cells ran back to back, so machine noise cancels.
			for t := 0; t < len(trials[ti]) && t < len(trials[hi]); t++ {
				if d := trials[hi][t].PostOpsPerSec; d > 0 {
					if r := trials[ti][t].PostOpsPerSec / d; r > rep.TuneSpeedup {
						rep.TuneSpeedup = r
					}
				}
			}
			fmt.Printf("auto-tune speedup (post-shift, self-tuned vs staying on majority): %.2fx\n", rep.TuneSpeedup)
			if rep.TuneSpeedup < 1.3 {
				gates = append(gates, fmt.Sprintf("auto-tune post-shift speedup %.2fx < 1.30x", rep.TuneSpeedup))
			}
			// The asymmetric winner must also be cheaper on the wire, not
			// just faster end to end.
			tr, hr := find(rep.Runs, "tcp/w8/k64b8/tune"), find(rep.Runs, "tcp/w8/k64b8/hold")
			if tr != nil && hr != nil && tr.Completed > 0 && hr.Completed > 0 {
				tm := float64(tr.MsgsSent) / float64(tr.Completed)
				hm := float64(hr.MsgsSent) / float64(hr.Completed)
				fmt.Printf("wire cost: tuned %.2f msgs/op vs majority %.2f msgs/op\n", tm, hm)
				if tm >= hm {
					gates = append(gates, fmt.Sprintf("tuned config sends %.2f msgs/op, not cheaper than majority's %.2f", tm, hm))
				}
			}
		}
	}

	if *suiteLease {
		ri, li := -1, -1
		for i := range specs {
			switch specs[i].Name {
			case "tcp/w8/k64b8/r90":
				ri = i
			case "tcp/w8/k64b8/lease":
				li = i
			}
		}
		if ri >= 0 && li >= 0 {
			// Matched-trial ratio like the tune and gateway pairs: trial t of
			// both cells ran back to back, so machine noise cancels inside
			// each pair.
			for t := 0; t < len(trials[li]) && t < len(trials[ri]); t++ {
				if d := trials[ri][t].OpsPerSec; d > 0 {
					if r := trials[li][t].OpsPerSec / d; r > rep.LeaseSpeedup {
						rep.LeaseSpeedup = r
					}
				}
			}
			fmt.Printf("read-lease speedup (90%% reads, leased vs plain quorum): %.2fx\n", rep.LeaseSpeedup)
			if rep.LeaseSpeedup < 2.0 {
				gates = append(gates, fmt.Sprintf("read-lease speedup %.2fx < 2.00x", rep.LeaseSpeedup))
			}
			// The speedup must come from skipping quorum rounds, not from a
			// lucky run: the leased cell has to be strictly cheaper per op on
			// the wire.
			lr, rr := find(rep.Runs, "tcp/w8/k64b8/lease"), find(rep.Runs, "tcp/w8/k64b8/r90")
			if lr != nil && rr != nil && lr.Completed > 0 && rr.Completed > 0 {
				lm := float64(lr.MsgsSent) / float64(lr.Completed)
				rm := float64(rr.MsgsSent) / float64(rr.Completed)
				fmt.Printf("wire cost: leased %.2f msgs/op vs plain %.2f msgs/op (%d local reads, %d grants, %d invalidation rounds)\n",
					lm, rm, lr.LeaseLocalReads, lr.LeaseGrants, lr.LeaseInvalRounds)
				if lm >= rm {
					gates = append(gates, fmt.Sprintf("leased cell sends %.2f msgs/op, not fewer than plain %.2f", lm, rm))
				}
			}
			if lr != nil && lr.LeaseGrants == 0 {
				gates = append(gates, "lease cell never acquired a lease")
			}
		}
	}

	if *stageSanity != "" {
		r := find(rep.Runs, *stageSanity)
		switch {
		case r == nil:
			gates = append(gates, fmt.Sprintf("-stage-sanity cell %q was not run", *stageSanity))
		case len(r.Stages) == 0:
			gates = append(gates, fmt.Sprintf("-stage-sanity: cell %s carries no server stage data (is -trace-sample 0?)", *stageSanity))
		default:
			// Sum the per-message processing stages' medians and hold them
			// under the client-observed p50: a full round trip must cost at
			// least the server work inside it. The whole-round waits (total,
			// quorum, lease) are excluded — each already spans the other
			// stages plus the network, so they are not additive terms.
			sum := 0.0
			var parts []string
			for _, name := range optrace.StageNames() {
				if name == "total" || name == "quorum" || name == "lease" {
					continue
				}
				st, ok := r.Stages[name]
				if !ok || st.Count == 0 {
					continue
				}
				sum += st.P50Us
				parts = append(parts, fmt.Sprintf("%s=%.1f", name, st.P50Us))
			}
			fmt.Printf("stage sanity (%s): server stage medians sum %.1fµs ≤ client p50 %.1fµs (%s)\n",
				r.Name, sum, r.P50us, strings.Join(parts, " "))
			if sum > r.P50us {
				gates = append(gates, fmt.Sprintf("stage sanity: %s server stage medians sum %.1fµs > client p50 %.1fµs", r.Name, sum, r.P50us))
			}
			if len(r.Stages) < 5 {
				gates = append(gates, fmt.Sprintf("stage sanity: %s has only %d stages with samples (want ≥ 5) — trace plumbing is rotting", r.Name, len(r.Stages)))
			}
		}
	}

	if *metricsAddr != "" {
		snap, err := fetchServerTrace(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: -metrics-addr: %v (report not stamped)\n", err)
		} else {
			rep.ServerTrace = snap
		}
	}

	var regressions []string
	if *comparePath != "" {
		var err error
		regressions, err = compare(*comparePath, &rep, *tolerance)
		if err != nil {
			fatal("compare: %v", err)
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", *jsonPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("%v", err)
		}
		f.Close()
	}
	if len(regressions) > 0 {
		fatal("throughput regressed beyond %.0f%% tolerance: %s",
			*tolerance*100, strings.Join(regressions, ", "))
	}
	if len(gates) > 0 {
		fatal("acceptance gates failed: %s", strings.Join(gates, "; "))
	}
}

// cellName renders a cell's canonical name: mode/window plus a /kKbB
// suffix when the cell is keyed or batched (tcp/w8, tcp/w8/k64b8).
func cellName(mode string, window, keys, batch int) string {
	name := fmt.Sprintf("%s/w%d", mode, window)
	if keys > 1 || batch > 1 {
		name += fmt.Sprintf("/k%db%d", keys, batch)
	}
	return name
}

// dedupe drops repeated cell names when sweeps overlap (e.g. -suite and
// -suite-keys both contain tcp/w8/k64b8), keeping first occurrences.
func dedupe(specs []runSpec) []runSpec {
	seen := make(map[string]bool, len(specs))
	out := specs[:0]
	for _, s := range specs {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s)
		}
	}
	return out
}

// reconfigCtl coordinates a -reconfig-at swap: counts completions across
// every client's callbacks (which run on different event loops), fires the
// coordinator kick exactly once at the threshold, and records the split
// point for pre/post throughput plus the transition error count.
type reconfigCtl struct {
	at         int64
	done       atomic.Int64
	kicked     atomic.Bool
	errs       atomic.Int64
	preElapsed atomic.Int64 // nanoseconds from workload start to the kick
	start      time.Time
	kick       func() // set before the mesh starts, so the callbacks see it
	once       sync.Once
}

func (rc *reconfigCtl) fire() {
	rc.once.Do(func() {
		rc.preElapsed.Store(int64(time.Since(rc.start)))
		rc.kicked.Store(true)
		rc.kick()
	})
}

// runOnce executes one benchmark cell: build the cluster, kick the client
// workloads, wait for every operation to resolve, aggregate into hist
// (Reset first — the caller reuses it across cells).
func runOnce(spec runSpec, hist *histo.Histogram) (runResult, error) {
	n := spec.Rows * spec.Cols
	if spec.Clients < 1 {
		return runResult{}, fmt.Errorf("clients must be ≥ 1")
	}
	if spec.Mode == "gateway" || spec.Mode == "session" {
		return runGateway(spec, hist)
	}
	// "disk" is the tcp transport with every replica on the WAL backend
	// in a throwaway directory; fsyncs are real — that is the point.
	transportMode, disk := spec.Mode, spec.Mode == "disk"
	if disk {
		transportMode = "tcp"
	}
	var diskRoot string
	if disk {
		var err error
		if diskRoot, err = os.MkdirTemp("", "loadgen-wal-"); err != nil {
			return runResult{}, err
		}
		defer os.RemoveAll(diskRoot)
	}
	// Direct modes run each client on a replica node, so the count is
	// bounded by the cluster; gateway mode decouples the two.
	if spec.Clients > n {
		return runResult{}, fmt.Errorf("clients must be ≤ %d in %s mode (use -mode gateway for more clients than nodes)", n, spec.Mode)
	}
	var rc *reconfigCtl
	var target epoch.Params
	var stores []*epoch.Store
	total := spec.Clients * spec.Ops
	initial, err := buildParams(spec.Store, spec.Rows, spec.Cols, n)
	if err != nil {
		return runResult{}, err
	}
	switch {
	case spec.ReconfigAt > 0:
		if spec.Mode != "tcp" {
			return runResult{}, fmt.Errorf("-reconfig-at requires tcp mode")
		}
		if target, err = buildParams(spec.ReconfigTo, spec.Rows, spec.Cols, n); err != nil {
			return runResult{}, err
		}
		if initial.Equal(target) {
			return runResult{}, fmt.Errorf("-reconfig-to %q is already the initial config", spec.ReconfigTo)
		}
		rc = &reconfigCtl{at: int64(spec.ReconfigAt)}
	case spec.ShiftReads > 0:
		// Mix-shift cells let the auto-tuner (and the hold cell could, but
		// won't) re-shape the cluster. The split controller fires at the
		// shift point — no reconfiguration kick of its own; the tuner
		// drives any swap.
		if spec.Mode != "tcp" {
			return runResult{}, fmt.Errorf("mix-shift cells require tcp mode")
		}
		rc = &reconfigCtl{at: int64(total / 2)}
	}

	var remaining atomic.Int64
	remaining.Store(int64(total))
	done := make(chan struct{})

	// Per-client state, touched only from that node's event loop; merged
	// after the mesh has shut down.
	type clientState struct {
		hist      histo.Histogram
		rhist     histo.Histogram
		whist     histo.Histogram
		completed int
		failed    int
	}
	states := make([]*clientState, spec.Clients)
	handlers := make([]cluster.Handler, n)
	nodes := make([]*rkv.Node, n)
	var closeOnce sync.Once
	for i := 0; i < n; i++ {
		es, err := epoch.NewStore(n, initial)
		if err != nil {
			return runResult{}, err
		}
		stores = append(stores, es)
		cfg := rkv.Config{
			Epochs:        es,
			Shards:        spec.Shards,
			Timeout:       spec.Timeout,
			OpDeadline:    spec.OpDeadline,
			ReadWriteback: spec.Writeback,
			Window:        spec.Window,
			Batch:         spec.Batch,
			OpGap:         -1, // load generation: no think time
			TraceSample:   spec.TraceSample,
		}
		if disk {
			cfg.Storage = "disk"
			cfg.DataDir = filepath.Join(diskRoot, fmt.Sprintf("n%02d", i))
		}
		if spec.AutoTune && i == 0 {
			cfg.AutoTune = &tuner.Policy{
				Interval: 100 * time.Millisecond,
				HoldFor:  2,
				MinOps:   64,
			}
		}
		if spec.Lease && i == 0 {
			// Policy-driven grant: the holder waits for its workload window
			// to measure a read-heavy mix (the suite cell runs 90% reads),
			// then acquires. Wall-clock TTL with the member-side slack on
			// top; renewals keep it alive for the whole run.
			cfg.Lease = &lease.Config{
				Shards:  16,
				TTL:     time.Second,
				Check:   100 * time.Millisecond,
				MinOps:  32,
				Acquire: true,
			}
		}
		node, err := rkv.NewNode(cluster.NodeID(i), cfg)
		if err != nil {
			return runResult{}, err
		}
		nodes[i] = node
		handlers[i] = node
		if i < spec.Clients {
			cs := &clientState{}
			states[i] = cs
			// A closed loop: each callback records its result and submits
			// the client's next op, so the node keeps finding full batches
			// queued until the workload runs out.
			ops := buildWorkload(spec, int64(i))
			var submit func()
			submit = func() {
				if len(ops) == 0 {
					return
				}
				op := ops[0]
				ops = ops[1:]
				node.Submit(op, func(r rkv.Result) {
					cs.hist.RecordDuration(r.At - r.Start)
					if r.Kind == rkv.OpRead {
						cs.rhist.RecordDuration(r.At - r.Start)
					} else {
						cs.whist.RecordDuration(r.At - r.Start)
					}
					if r.Err != nil {
						cs.failed++
					} else {
						cs.completed++
					}
					if rc != nil {
						if r.Err != nil && rc.kicked.Load() {
							rc.errs.Add(1)
						}
						if rc.done.Add(1) == rc.at {
							rc.fire()
						}
					}
					if remaining.Add(-1) == 0 {
						closeOnce.Do(func() { close(done) })
					}
					submit()
				})
			}
			// Two windows of full batches start queued.
			for k := 0; k < 2*max(1, spec.Window)*max(1, spec.Batch); k++ {
				submit()
			}
		}
	}

	res := runResult{
		Name: spec.Name, Mode: spec.Mode, Window: spec.Window,
		Batch: spec.Batch, Keys: spec.Keys, Zipf: spec.Zipf,
		Clients: spec.Clients, Nodes: n,
	}
	var elapsed time.Duration
	switch transportMode {
	case "tcp":
		mesh, err := transport.NewMesh(handlers)
		if err != nil {
			return runResult{}, err
		}
		if rc != nil {
			rc.kick = func() {}
			if spec.ReconfigAt > 0 {
				coord := mesh.Node(0)
				rc.kick = func() { coord.Kick(0, rkv.ReconfigToken(target)) }
			}
		}
		mesh.Start()
		if spec.AutoTune {
			mesh.Node(0).Kick(0, rkv.TuneToken())
		}
		if spec.Lease {
			mesh.Node(0).Kick(0, rkv.LeaseToken())
		}
		start := time.Now()
		if rc != nil {
			rc.start = start
		}
		for i := 0; i < spec.Clients; i++ {
			tn, node := mesh.Node(i), nodes[i]
			node.SetWake(func() { tn.Kick(0, node.StartToken()) })
			tn.Kick(0, node.StartToken())
		}
		if err := wait(done, spec.RunTimeout); err != nil {
			mesh.Close()
			return runResult{}, err
		}
		elapsed = time.Since(start)
		if rc != nil {
			// Let the coordinator finish spreading the final config before
			// tearing the mesh down, so FinalEpoch reports the settled state.
			// An explicit -reconfig-at must land at its target (epoch ≥ 3);
			// mix-shift cells only need a stable (non-joint) config — whether
			// the tuner swapped is the acceptance gate's question, not a run
			// error.
			minEpoch := uint64(3)
			if spec.ReconfigAt == 0 {
				minEpoch = 1
			}
			if err := waitSettled(stores, minEpoch, 10*time.Second); err != nil {
				mesh.Close()
				return runResult{}, err
			}
		}
		stats := mesh.Stats()
		mesh.Close()
		res.MsgsSent, res.BytesOut, res.Flushes = stats.Sent, stats.BytesOut, stats.Flushes
	case "mem":
		mesh := transport.NewMemMesh(handlers)
		start := time.Now()
		for i := 0; i < spec.Clients; i++ {
			i, node := i, nodes[i]
			node.SetWake(func() { mesh.Kick(i, 0, node.StartToken()) })
			mesh.Kick(i, 0, node.StartToken())
		}
		if err := wait(done, spec.RunTimeout); err != nil {
			mesh.Close()
			return runResult{}, err
		}
		elapsed = time.Since(start)
		mesh.Close()
	default:
		return runResult{}, fmt.Errorf("unknown mode %q", spec.Mode)
	}

	// The mesh is closed: every event loop has exited, so the per-client
	// state is quiescent and safe to merge from here.
	if disk {
		// Release the WAL file handles before the trial's directory goes
		// away; a failed final flush is a real durability error.
		for _, node := range nodes {
			if err := node.Close(); err != nil {
				return runResult{}, err
			}
		}
	}
	hist.Reset()
	var rhist, whist histo.Histogram
	for _, cs := range states {
		hist.Merge(&cs.hist)
		rhist.Merge(&cs.rhist)
		whist.Merge(&cs.whist)
		res.Completed += cs.completed
		res.Failed += cs.failed
	}
	res.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Completed) / elapsed.Seconds()
	}
	us := func(v int64) float64 { return float64(v) / 1e3 }
	res.P50us = us(hist.Quantile(0.50))
	res.P95us = us(hist.Quantile(0.95))
	res.P99us = us(hist.Quantile(0.99))
	res.P999us = us(hist.Quantile(0.999))
	res.MaxUs = us(hist.Max())
	res.MeanUs = hist.Mean() / 1e3
	res.ReadFrac = spec.Reads
	res.ShiftReadFrac = spec.ShiftReads
	res.ReadOps = int(rhist.Count())
	res.WriteOps = int(whist.Count())
	if rhist.Count() > 0 {
		res.ReadP50us = us(rhist.Quantile(0.50))
		res.ReadP99us = us(rhist.Quantile(0.99))
	}
	if whist.Count() > 0 {
		res.WriteP50us = us(whist.Quantile(0.50))
		res.WriteP99us = us(whist.Quantile(0.99))
	}
	if spec.Lease {
		for _, node := range nodes {
			st := node.LeaseStats()
			res.LeaseGrants += st.Grants
			res.LeaseLocalReads += st.LocalReads
			res.LeaseInvalRounds += st.InvalRounds
			res.LeaseExpiries += st.Expiries
		}
	}
	if err := stampTrace(&res, nodes, nil); err != nil {
		return runResult{}, err
	}
	if rc != nil {
		res.ReconfigAt = int(rc.at)
		res.TransitionErrs = int(rc.errs.Load())
		res.FinalEpoch = stores[0].Epoch()
		pre := time.Duration(rc.preElapsed.Load())
		if pre > 0 {
			res.PreOpsPerSec = float64(rc.at) / pre.Seconds()
		}
		if post := elapsed - pre; pre > 0 && post > 0 {
			res.PostOpsPerSec = float64(int64(total)-rc.at) / post.Seconds()
		}
	}
	return res, nil
}

// buildParams maps a -store/-reconfig-to flavor name onto epoch params
// over the dense member set 0..n-1 (the mesh's node IDs).
func buildParams(name string, rows, cols, n int) (epoch.Params, error) {
	flavor, err := epoch.ParseFlavor(name)
	if err != nil {
		return epoch.Params{}, err
	}
	p := epoch.Params{Flavor: flavor, Members: epoch.MemberRange(0, n)}
	switch flavor {
	case epoch.FlavorHGrid, epoch.FlavorHTGrid:
		p.Rows, p.Cols = rows, cols
	case epoch.FlavorHTriang:
		return epoch.Params{}, fmt.Errorf("htriang is not supported by loadgen (needs k(k+1)/2 nodes)")
	}
	return p, nil
}

// waitSettled polls every epoch store until all run a stable (non-joint)
// config at or beyond minEpoch.
func waitSettled(stores []*epoch.Store, minEpoch uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		settled := true
		for _, es := range stores {
			if snap := es.Snapshot(); snap.Joint() || snap.Epoch < minEpoch {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not settle on the target config within %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stampTrace merges every node's tracer snapshot (plus any extra
// tracers — the gateway tier's) and stamps the nonzero stages into res,
// wire payloads stripped: the artifact explains latency, it is not a
// further merge input. No-op when tracing was off or nothing sampled.
func stampTrace(res *runResult, nodes []*rkv.Node, extra []*optrace.Tracer) error {
	var snap optrace.Snapshot
	first := true
	merge := func(s optrace.Snapshot) error {
		if first {
			snap, first = s, false
			return nil
		}
		return snap.Merge(s)
	}
	for _, node := range nodes {
		if err := merge(node.TraceSnapshot()); err != nil {
			return fmt.Errorf("trace merge: %w", err)
		}
	}
	for _, t := range extra {
		if err := merge(t.Snapshot()); err != nil {
			return fmt.Errorf("trace merge: %w", err)
		}
	}
	if first || snap.Sampled == 0 {
		return nil
	}
	res.TraceSampled = snap.Sampled
	res.Stages = make(map[string]optrace.StageStat, len(snap.Stages))
	for name, st := range snap.Stages {
		if st.Count == 0 {
			continue
		}
		st.Wire = nil
		res.Stages[name] = st
	}
	return nil
}

// fetchServerTrace GETs a running kvd node's -metrics-addr document and
// returns its optrace group — the deployment-side stage snapshot the
// report is stamped with when loadgen drove a live cluster.
func fetchServerTrace(addr string) (*optrace.Snapshot, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/metrics"
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %s", url, resp.Status)
	}
	var doc struct {
		Optrace optrace.Snapshot `json:"optrace"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return &doc.Optrace, nil
}

// buildWorkload generates a client's deterministic op mix over the
// keyspace: keys drawn uniformly or zipfian (rank 0 hottest), reads drawn
// from the read fraction but forced to writes until the client has written
// that key once (so reads always observe data), values of the configured
// size.
func buildWorkload(spec runSpec, client int64) []rkv.Op {
	rng := rand.New(rand.NewSource(spec.Seed*1000 + client))
	value := func(i int) string {
		b := make([]byte, spec.Value)
		for j := range b {
			b[j] = 'a' + byte((int(client)+i+j)%26)
		}
		return string(b)
	}
	names := make([]string, spec.Keys)
	for i := range names {
		if spec.Keys > 1 {
			names[i] = fmt.Sprintf("k%03d", i)
		}
	}
	pickKey := func() string { return names[0] }
	if spec.Keys > 1 {
		if spec.Zipf > 1 {
			z := rand.NewZipf(rng, spec.Zipf, 1, uint64(spec.Keys-1))
			pickKey = func() string { return names[z.Uint64()] }
		} else {
			pickKey = func() string { return names[rng.Intn(spec.Keys)] }
		}
	}
	written := make(map[string]bool, spec.Keys)
	ops := make([]rkv.Op, 0, spec.Ops)
	for i := 0; i < spec.Ops; i++ {
		readFrac := spec.Reads
		if spec.ShiftReads > 0 && i >= spec.Ops/2 {
			readFrac = spec.ShiftReads
		}
		k := pickKey()
		if written[k] && rng.Float64() < readFrac {
			ops = append(ops, rkv.Op{Kind: rkv.OpRead, Key: k})
		} else {
			written[k] = true
			ops = append(ops, rkv.Op{Kind: rkv.OpWrite, Key: k, Value: value(i)})
		}
	}
	return ops
}

func wait(done <-chan struct{}, limit time.Duration) error {
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("run exceeded -run-timeout %v (cluster stuck?)", limit)
	}
}

func find(runs []runResult, name string) *runResult {
	for i := range runs {
		if runs[i].Name == name {
			return &runs[i]
		}
	}
	return nil
}

func printResult(r runResult) {
	fmt.Printf("%-14s nodes=%d clients=%d window=%d batch=%d keys=%d  ops=%d failed=%d  %8.0f ops/s  p50=%s p95=%s p99=%s p999=%s max=%s\n",
		r.Name, r.Nodes, r.Clients, r.Window, r.Batch, r.Keys, r.Completed, r.Failed, r.OpsPerSec,
		fmtUs(r.P50us), fmtUs(r.P95us), fmtUs(r.P99us), fmtUs(r.P999us), fmtUs(r.MaxUs))
	if r.Mode == "tcp" || r.Mode == "disk" || r.Mode == "gateway" || r.Mode == "session" {
		perFlush := float64(0)
		if r.Flushes > 0 {
			perFlush = float64(r.MsgsSent) / float64(r.Flushes)
		}
		fmt.Printf("%-14s msgs=%d bytes_out=%d flushes=%d (%.1f msgs/flush)\n",
			"", r.MsgsSent, r.BytesOut, r.Flushes, perFlush)
	}
	if r.Mode == "gateway" {
		fmt.Printf("%-14s sessions=%d shed=%d retries=%d\n", "", r.Sessions, r.GwShed, r.GwRetries)
	}
	if r.ReconfigAt > 0 {
		fmt.Printf("%-14s reconfig@%d: pre %.0f ops/s, post %.0f ops/s, transition errs %d, settled epoch %d\n",
			"", r.ReconfigAt, r.PreOpsPerSec, r.PostOpsPerSec, r.TransitionErrs, r.FinalEpoch)
	}
	if r.LeaseGrants > 0 || r.LeaseLocalReads > 0 {
		hit := float64(0)
		if r.ReadOps > 0 {
			hit = 100 * float64(r.LeaseLocalReads) / float64(r.ReadOps)
		}
		fmt.Printf("%-14s lease: grants=%d local_reads=%d (%.1f%% of reads) inval_rounds=%d expiries=%d\n",
			"", r.LeaseGrants, r.LeaseLocalReads, hit, r.LeaseInvalRounds, r.LeaseExpiries)
	}
	if len(r.Stages) > 0 {
		var b strings.Builder
		for _, name := range optrace.StageNames() {
			if st, ok := r.Stages[name]; ok && st.Count > 0 {
				fmt.Fprintf(&b, " %s=%.1f", name, st.P50Us)
			}
		}
		fmt.Printf("%-14s server stage p50s (µs, %d ops sampled):%s\n", "", r.TraceSampled, b.String())
	}
}

func fmtUs(us float64) string {
	d := time.Duration(us * float64(time.Microsecond))
	return d.Round(time.Microsecond).String()
}

// compare prints a benchstat-style old-vs-new table of the current report
// against a committed baseline, matching cells by name, and returns the
// cells whose throughput regressed beyond the tolerance fraction — the CI
// gate's trip wire. Cells absent from the baseline are "new", never
// regressions.
func compare(baselinePath string, cur *report, tolerance float64) ([]string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, err
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("%s: %w", baselinePath, err)
	}
	// Throughput gates across differing CPU budgets are noise, not signal:
	// refuse rather than pass or fail on meaningless numbers. (Baselines
	// predating the fields read as zero and are let through with a warning.)
	if old.CPUs != 0 && (old.CPUs != cur.CPUs || old.GOMAXPROCS != cur.GOMAXPROCS) {
		return nil, fmt.Errorf("baseline ran on cpus=%d gomaxprocs=%d, this run has cpus=%d gomaxprocs=%d — refusing to gate throughput across differing CPU budgets; regenerate the baseline on this machine",
			old.CPUs, old.GOMAXPROCS, cur.CPUs, cur.GOMAXPROCS)
	}
	if old.CPUs == 0 {
		fmt.Fprintf(os.Stderr, "loadgen: baseline %s predates CPU stamping; comparing anyway\n", baselinePath)
	}
	var regressions []string
	var newCells []string
	var noStageData []string
	var b strings.Builder
	fmt.Fprintf(&b, "\n%-14s  %14s  %14s  %8s    %12s  %12s  %8s\n",
		"cell", "old ops/s", "new ops/s", "delta", "old p99", "new p99", "delta")
	for i := range cur.Runs {
		nr := &cur.Runs[i]
		or := find(old.Runs, nr.Name)
		if or == nil {
			fmt.Fprintf(&b, "%-14s  %14s  %14.0f  %8s\n", nr.Name, "-", nr.OpsPerSec, "new")
			newCells = append(newCells, nr.Name)
			continue
		}
		// A throughput delta across differing read/write mixes measures the
		// mix, not the code — refuse rather than gate on it. (Baselines
		// predating mix stamping read as zero and are let through.)
		if or.ReadFrac != 0 && nr.ReadFrac != 0 &&
			(or.ReadFrac != nr.ReadFrac || or.ShiftReadFrac != nr.ShiftReadFrac) {
			return nil, fmt.Errorf("cell %s: baseline ran %.0f%% reads, this run %.0f%% — refusing to gate across differing mixes; regenerate the baseline",
				nr.Name, 100*or.ReadFrac, 100*nr.ReadFrac)
		}
		if len(nr.Stages) > 0 && len(or.Stages) == 0 {
			noStageData = append(noStageData, nr.Name)
		}
		mark := ""
		switch {
		case ratioGated(nr.Name):
			// The gateway pair and the WAN tail cells are judged by their
			// own within-run ratio gates (noise cancels inside one run);
			// their absolute ops/s swings with machine noise run to run, so
			// a cross-run tolerance gate on them would flake, not protect.
			mark = "  (ratio-gated)"
		case or.OpsPerSec > 0 && nr.OpsPerSec < or.OpsPerSec*(1-tolerance):
			mark = "  <-- REGRESSION"
			regressions = append(regressions, nr.Name)
		}
		fmt.Fprintf(&b, "%-14s  %14.0f  %14.0f  %+7.1f%%    %12s  %12s  %+7.1f%%%s\n",
			nr.Name, or.OpsPerSec, nr.OpsPerSec, pct(or.OpsPerSec, nr.OpsPerSec),
			fmtUs(or.P99us), fmtUs(nr.P99us), pct(or.P99us, nr.P99us), mark)
	}
	if old.PipelineSpeedup > 0 && cur.PipelineSpeedup > 0 {
		fmt.Fprintf(&b, "speedup   %19.2fx  %13.2fx\n", old.PipelineSpeedup, cur.PipelineSpeedup)
	}
	fmt.Print(b.String())
	if len(newCells) > 0 {
		// New cells pass by construction — say so loudly instead of letting
		// an un-gated cell masquerade as a protected one.
		fmt.Fprintf(os.Stderr, "loadgen: %d cell(s) absent from baseline %s, not gated: %s — commit a regenerated baseline to gate them\n",
			len(newCells), baselinePath, strings.Join(newCells, ", "))
	}
	if len(noStageData) > 0 {
		// A missing stage breakdown in the baseline is age, not a
		// regression: warn so the baseline gets regenerated, never fail.
		fmt.Fprintf(os.Stderr, "loadgen: baseline %s predates server stage data for: %s — stage breakdowns are informational this run; regenerate the baseline to archive them\n",
			baselinePath, strings.Join(noStageData, ", "))
	}
	return regressions, nil
}

// ratioGated reports whether a cell is covered by a within-run ratio
// gate (gateway efficiency, WAN tail, auto-tuner pair) instead of the
// cross-run throughput tolerance.
func ratioGated(name string) bool {
	return strings.HasPrefix(name, "gw/") || strings.HasPrefix(name, "sess/") || strings.HasPrefix(name, "wan3/") ||
		strings.HasSuffix(name, "/tune") || strings.HasSuffix(name, "/hold") ||
		strings.HasSuffix(name, "/lease") || strings.HasSuffix(name, "/r90")
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
