// Command kvd runs one replica of the quorum-replicated register as a real
// process speaking TCP — the deployment path for the protocols the rest of
// this repository analyzes and simulates.
//
// A cluster is described by a peers file with one "id host:port" line per
// replica. The quorum construction is epoch-versioned: every replica
// starts from the same initial configuration (-store, -rows/-cols,
// -members) and a running cluster can be moved to a different flavor or
// member set with `quorumctl reconfig` — no restarts. Example, a 2×2 grid:
//
//	$ cat peers.txt
//	0 127.0.0.1:7000
//	1 127.0.0.1:7001
//	2 127.0.0.1:7002
//	3 127.0.0.1:7003
//
//	$ kvd -id 1 -peers peers.txt -store hgrid -rows 2 -cols 2 &
//	... (start every replica) ...
//	$ kvd -id 0 -peers peers.txt -store hgrid -rows 2 -cols 2 -write hello -then-read
//
// -members restricts the initial configuration to a subset of the peers
// file ("0-8" on a 16-entry file starts a majority-9 cluster with seven
// standby replicas — grow it later by reconfiguring to a 16-member
// config). Every process in the peers file must be started with the same
// initial configuration flags; the epoch store takes over from there.
//
// A replica with -write/-read flags performs those client operations
// against the cluster and prints the results; without them it serves
// forever. -key names the key the operations target (the store is
// multi-key: replicas hold a hash-sharded keyed map, -shards wide), so
//
//	$ kvd -id 0 -peers peers.txt -key user:42 -write hello -then-read
//
// reads back "hello" from key "user:42" without disturbing other keys.
//
// -data-dir makes the replica durable: every acknowledged write is
// committed to a per-shard write-ahead log (one fsync covers a whole
// batch) before the ack leaves the node, so a kill -9 loses nothing.
// On restart the replica replays its log, rejoins the cluster epoch and
// serves again. SIGTERM/SIGINT shut down gracefully — flush, snapshot,
// and mark the directory clean so the next start skips segment replay.
//
// -lease makes the replica acquire per-shard read leases whenever its
// measured workload is read-heavy and serve those reads locally with
// zero messages (its own writes there take their version from the local
// store too: one quorum round, not two); other writers to a leased shard
// first run a synchronous invalidation round against the holder. Every
// replica always runs the member side (recording leases, blocking
// conflicting writes) and boots with a write quarantine of one lease TTL
// plus slack, since a restart loses the member table. -metrics-addr
// exposes the lease counters (grants, local reads, local versions,
// invalidation rounds, expiries) along with the transport, WAL,
// pick-cache and workload-profiler stats.
//
// The client path degrades gracefully instead of hanging: every
// operation is bounded by -op-deadline and fails with a typed quorum
// error (ErrNoQuorum when every quorum contains a silent replica,
// ErrDegraded when trusted replicas were merely slow), attempts back
// off exponentially with jitter from -attempt-timeout, and peer dials
// are bounded by -dial-timeout. -writeback=false trades linearizable
// reads for one fewer round trip.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/lease"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
	"hquorum/internal/tuner"
)

func main() {
	id := flag.Int("id", -1, "this replica's ID (must appear in the peers file)")
	peersPath := flag.String("peers", "", "peers file: one 'id host:port' per line")
	store := flag.String("store", "hgrid", "initial quorum flavor: majority, hgrid, htgrid or htriang")
	rows := flag.Int("rows", 4, "grid rows (rows*cols must equal the member count; htriang's k)")
	cols := flag.Int("cols", 4, "grid cols")
	members := flag.String("members", "", "initial member IDs, e.g. '0-8' or '0-3,6' (default: every peer)")
	key := flag.String("key", "", "key the client operations target (empty = the classic single register)")
	shards := flag.Int("shards", 0, "replica store shard count (0 = rkv default; more shards = less lock contention across keys)")
	dataDir := flag.String("data-dir", "", "durable storage directory: back the replica with a per-shard write-ahead log so a kill -9 loses nothing acknowledged (empty = in-memory, state dies with the process)")
	snapEvery := flag.Int("snapshot-every", 0, "checkpoint the store and truncate the log after this many appends (0 = WAL default, negative disables)")
	write := flag.String("write", "", "perform a read-write update with this value")
	read := flag.Bool("read", false, "perform a read")
	thenRead := flag.Bool("then-read", false, "follow the write with a read")
	timeout := flag.Duration("timeout", time.Minute, "overall client budget (process exits after this long)")
	opDeadline := flag.Duration("op-deadline", 30*time.Second, "per-operation deadline: on expiry the operation fails with a typed quorum error (ErrNoQuorum/ErrDegraded) instead of retrying forever; 0 retries forever")
	attempt := flag.Duration("attempt-timeout", time.Second, "per-attempt quorum patience (grows with backoff and jitter)")
	dialTimeout := flag.Duration("dial-timeout", time.Second, "TCP dial timeout for peer connections")
	writeback := flag.Bool("writeback", true, "complete reads only after writing the observed version back to a write quorum (linearizable reads; costs one write round per read unless the read's quorum contains a write quorum and agrees)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	autoTune := flag.Bool("auto-tune", false, "profile the workload and reconfigure the cluster live when a different quorum configuration wins under the measured read/write mix (enable on exactly one replica)")
	tuneInterval := flag.Duration("tune-interval", 0, "auto-tune evaluation period (0 = tuner default)")
	tuneHold := flag.Int("tune-hold", 0, "consecutive winning evaluations before a swap (0 = tuner default)")
	tuneMinGain := flag.Float64("tune-min-gain", 0, "cost ratio a winner must clear to trigger a swap (0 = tuner default)")
	tuneFailP := flag.Float64("tune-fail-p", 0, "per-node failure probability the optimizer scores availability at (0 = tuner default)")
	tuneMinAvail := flag.Float64("tune-min-avail", 0, "workload-weighted availability floor a candidate must clear (0 = tuner default)")
	metricsAddr := flag.String("metrics-addr", "", "serve a JSON metrics endpoint on this address (transport, WAL, pick cache, workload-profiler, lease and op-trace counters)")
	traceSample := flag.Int("trace-sample", 64, "op-trace sampling rate: stamp per-stage timings on 1 in N operations and fold them into the metrics endpoint's stage histograms (0 disables)")
	leaseOn := flag.Bool("lease", false, "acquire per-shard read leases when the measured workload is read-heavy and serve those reads locally with zero messages (writers pay an invalidation round)")
	leaseTTL := flag.Duration("lease-ttl", 0, "read-lease TTL (0 = lease default; longer = fewer renewal waves, slower writer unblock when this holder dies)")
	leaseShards := flag.Int("lease-shards", 0, "lease shard count keys hash into, 1-64 (0 = lease default; coarser is cheaper to invalidate, finer blocks fewer writers)")
	leaseMinReadFrac := flag.Float64("lease-min-read-frac", 0, "workload read fraction at or above which the holder grants/renews (0 = lease default 0.75; negative = always grant)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "kvd: pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "kvd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	peers, err := transport.LoadPeers(*peersPath)
	if err != nil {
		fatal("peers: %v", err)
	}
	addr, ok := peers[cluster.NodeID(*id)]
	if !ok {
		fatal("replica %d is not in the peers file", *id)
	}

	flavor, err := epoch.ParseFlavor(*store)
	if err != nil {
		fatal("%v", err)
	}
	memberIDs := transport.PeerIDs(peers)
	if *members != "" {
		if memberIDs, err = epoch.ParseMembers(*members, transport.IDSpace(peers)); err != nil {
			fatal("%v", err)
		}
	}
	initial := epoch.Params{Flavor: flavor, Rows: *rows, Cols: *cols, Members: memberIDs}
	epochs, err := epoch.NewStore(transport.IDSpace(peers), initial)
	if err != nil {
		fatal("%v", err)
	}

	var ops []rkv.Op
	if *write != "" {
		ops = append(ops, rkv.Op{Kind: rkv.OpWrite, Key: *key, Value: *write})
	}
	if *read || (*thenRead && *write != "") {
		ops = append(ops, rkv.Op{Kind: rkv.OpRead, Key: *key})
	}

	storage := ""
	if *dataDir != "" {
		storage = "disk"
	}
	var tunePolicy *tuner.Policy
	if *autoTune {
		tunePolicy = &tuner.Policy{
			Interval: *tuneInterval,
			HoldFor:  *tuneHold,
			MinGain:  *tuneMinGain,
			FailP:    *tuneFailP,
			MinAvail: *tuneMinAvail,
		}
	}
	// Every kvd replica runs the lease member side with a boot
	// quarantine: a process restart loses the member table, so writes
	// this node coordinates wait out the longest lease it might have
	// recorded before the restart. Only -lease replicas also acquire.
	leaseCfg := &lease.Config{
		Shards:          *leaseShards,
		TTL:             *leaseTTL,
		MinReadFrac:     *leaseMinReadFrac,
		Acquire:         *leaseOn,
		StartQuarantine: true,
	}
	node, err := rkv.NewNode(cluster.NodeID(*id), rkv.Config{
		Epochs:        epochs,
		Shards:        *shards,
		Storage:       storage,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
		Timeout:       *attempt,
		OpDeadline:    *opDeadline,
		ReadWriteback: *writeback,
		AutoTune:      tunePolicy,
		Lease:         leaseCfg,
		TraceSample:   *traceSample,
	})
	if err != nil {
		fatal("%v", err)
	}
	if *dataDir != "" {
		st := node.WALStats()
		how := "replayed %d record(s) from the log"
		if node.CleanStart() {
			how = "clean shutdown marker found, loaded %d record(s) from snapshots"
		}
		fmt.Fprintf(os.Stderr, "kvd: durable storage in %s: "+how+"\n", *dataDir, st.Replayed)
	}

	tn, err := transport.NewNode(cluster.NodeID(*id), node, addr, transport.WithDialTimeout(*dialTimeout))
	if err != nil {
		fatal("%v", err)
	}
	defer tn.Close()
	tn.Connect(peers)
	tn.Start()
	fmt.Fprintf(os.Stderr, "kvd: replica %d serving on %s (epoch %d: %v)\n",
		*id, tn.Addr(), epochs.Epoch(), initial)
	if *autoTune {
		tn.Kick(0, rkv.TuneToken())
		fmt.Fprintf(os.Stderr, "kvd: auto-tune enabled\n")
	}
	if *leaseOn {
		tn.Kick(0, rkv.LeaseToken())
		fmt.Fprintf(os.Stderr, "kvd: read leases enabled (%d shards, ttl %v)\n",
			leaseCfg.WithDefaults().Shards, leaseCfg.WithDefaults().TTL)
	}
	var metrics *http.Server
	if *metricsAddr != "" {
		metrics, err = serveMetrics(*metricsAddr, metricsHandler(node, tn, epochs, storage != ""))
		if err != nil {
			fatal("metrics: %v", err)
		}
	}

	if len(ops) > 0 {
		// The client operations run as a callback chain: each result is
		// printed, then the next operation is submitted.
		done := make(chan struct{})
		failed := false
		var submit func(i int)
		submit = func(i int) {
			if i == len(ops) {
				close(done)
				return
			}
			node.Submit(ops[i], func(r rkv.Result) {
				label := r.Kind.String()
				if r.Key != "" {
					label = fmt.Sprintf("%v(%s)", r.Kind, r.Key)
				}
				if r.Err != nil {
					failed = true
					fmt.Printf("%-11s -> FAILED: %v (%d retries, t=%v)\n", label, r.Err, r.Retries, r.At)
				} else {
					fmt.Printf("%-11s -> %q (version %d.%d, %d retries, t=%v)\n",
						label, r.Value, r.Version.Counter, r.Version.Writer, r.Retries, r.At)
				}
				submit(i + 1)
			})
		}
		node.SetWake(func() { tn.Kick(0, node.StartToken()) })
		submit(0)
		select {
		case <-done:
			stopMetrics(metrics)
			shutdown(node)
			if failed {
				os.Exit(1)
			}
		case <-time.After(*timeout):
			fatal("client operations timed out (are all replicas up?)")
		}
		return
	}

	// Pure replica: serve until interrupted, then shut down gracefully —
	// drain the metrics server, flush and fsync the log, snapshot every
	// shard and leave the clean-shutdown marker so the next start skips
	// the segment replay.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "kvd: shutting down")
	stopMetrics(metrics)
	shutdown(node)
}

// metricsHandler builds the /metrics endpoint: the replica's
// observability counters as one JSON document — epoch config, transport
// stats, WAL stats (disk backend), pick-cache hit rate, the tuner's
// current workload window, the lease counters and the op tracer's
// per-stage histograms.
func metricsHandler(node *rkv.Node, tn *transport.Node, epochs *epoch.Store, disk bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		cfg := epochs.Snapshot()
		hits, misses := node.PickCacheStats()
		wl := node.Workload(tn.Now())
		ls := node.LeaseStats()
		doc := map[string]any{
			"epoch":     cfg.Epoch,
			"config":    cfg.Cur.String(),
			"joint":     cfg.Joint(),
			"transport": tn.Stats(),
			"pick_cache": map[string]any{
				"hits":   hits,
				"misses": misses,
			},
			"workload": map[string]any{
				"span_us":        wl.SpanUs,
				"reads":          wl.Reads,
				"writes":         wl.Writes,
				"errors":         wl.Errors,
				"read_frac":      wl.ReadFrac(),
				"writeback_frac": wl.WritebackFrac(),
				// Cumulative, unlike the window around it: reads that ended
				// after one round because a write quorum already agreed.
				"one_round_reads": node.OneRoundReads(),
				"avg_batch":       wl.AvgBatch(),
				"avg_latency_us":  uint64(wl.AvgLatency() / time.Microsecond),
				"key_skew":        wl.KeySkew(),
			},
			"lease": map[string]any{
				"grants":         ls.Grants,
				"renewals":       ls.Renewals,
				"local_reads":    ls.LocalReads,
				"local_versions": ls.LocalVersions,
				"inval_rounds":   ls.InvalRounds,
				"expiries":       ls.Expiries,
			},
			"optrace": node.TraceSnapshot(),
		}
		if disk {
			doc["wal"] = node.WALStats()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// serveMetrics binds addr and serves the handler in the background,
// logging the bound address once. The caller owns the returned server
// and must drain it through stopMetrics on shutdown.
func serveMetrics(addr string, h http.Handler) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "kvd: metrics: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "kvd: metrics on http://%s/metrics\n", ln.Addr())
	return srv, nil
}

// stopMetrics gracefully shuts the metrics server down (bounded wait:
// in-flight scrapes finish, then the listener closes) so SIGTERM/SIGINT
// no longer abandon it mid-request.
func stopMetrics(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "kvd: metrics shutdown: %v\n", err)
	}
}

// shutdown closes the node's storage backend; a failed flush is a real
// durability problem and exits non-zero so supervisors notice.
func shutdown(node *rkv.Node) {
	if err := node.Close(); err != nil {
		fatal("shutdown: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvd: "+format+"\n", args...)
	os.Exit(1)
}
