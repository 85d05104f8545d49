// Gateway-mode benchmarking: thousands of lightweight TCP clients
// multiplex onto a small pool of pipelined rkv sessions behind an
// internal/gateway tier, optionally over a simulated multi-region WAN
// (-regions) with latency-aware hierarchy placement (epoch.PlaceGrid)
// and cost-aware quorum picks (rkv PickCost).
package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/gateway"
	"hquorum/internal/histo"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
)

// runGateway executes one gateway-mode cell: Rows*Cols replicas plus
// Sessions session nodes on a loopback mesh (WAN-delayed when -regions
// is set), a gateway fanning Clients closed-loop connections into the
// session pool, Inflight concurrent ops per connection.
//
// Mode "session" runs the same cluster and the same closed-loop client
// streams, but each stream submits to its session in-process (no
// gateway, no client wire): the equivalent direct-session cell the
// gateway-efficiency gate compares against — the throughput ratio
// isolates exactly what the gateway tier (TCP framing, fairness ring,
// token admission) costs.
func runGateway(spec runSpec, hist *histo.Histogram) (runResult, error) {
	n := spec.Rows * spec.Cols
	nsess := spec.Sessions
	direct := spec.Mode == "session"
	if nsess < 1 {
		return runResult{}, fmt.Errorf("-sessions must be ≥ 1")
	}
	if spec.ReconfigAt > 0 {
		return runResult{}, fmt.Errorf("-reconfig-at is not supported in gateway mode")
	}
	inflight := spec.Inflight
	if inflight < 1 {
		inflight = 1
	}
	initial, err := buildParams(spec.Store, spec.Rows, spec.Cols, n)
	if err != nil {
		return runResult{}, err
	}
	_, linkLat, pickCost, err := wanTopology(spec, n)
	if err != nil {
		return runResult{}, err
	}

	// worker accumulates one measurement stream (a gateway client worker
	// or a direct-driven session), merged into hist after shutdown.
	type worker struct {
		hist      histo.Histogram
		completed int
		failed    int
	}
	var workers []*worker
	done := make(chan struct{})
	var closeOnce sync.Once

	// Session nodes take IDs n..n+nsess-1: inside the epoch universe (so
	// they coordinate rounds) but outside the member set (so they hold no
	// replica data and join no quorum).
	universe := n + nsess
	handlers := make([]cluster.Handler, universe)
	nodes := make([]*rkv.Node, universe)
	for i := 0; i < universe; i++ {
		es, err := epoch.NewStore(universe, initial)
		if err != nil {
			return runResult{}, err
		}
		cfg := rkv.Config{
			Epochs:        es,
			Shards:        spec.Shards,
			Timeout:       spec.Timeout,
			OpDeadline:    spec.OpDeadline,
			ReadWriteback: spec.Writeback,
			Window:        spec.Window,
			Batch:         spec.Batch,
			OpGap:         -1,
			TraceSample:   spec.TraceSample,
		}
		if i >= n && pickCost != nil {
			// Sessions take the cheapest quorum (PickSamples > 1 only
			// switches that on): on the WAN topologies this is what
			// keeps a hierarchical flavor's rounds region-local.
			cfg.PickCost = pickCost
			cfg.PickSamples = 8
		}
		node, err := rkv.NewNode(cluster.NodeID(i), cfg)
		if err != nil {
			return runResult{}, err
		}
		nodes[i] = node
		handlers[i] = node
	}

	var opts []transport.Option
	if linkLat != nil {
		opts = append(opts, transport.WithLinkLatency(linkLat))
	}
	mesh, err := transport.NewMesh(handlers, opts...)
	if err != nil {
		return runResult{}, err
	}
	mesh.Start()

	var gwStats gateway.Stats
	var gwTrace *optrace.Tracer
	var elapsed time.Duration
	if direct {
		// Same closed-loop streams as gateway mode, minus the gateway:
		// each client goroutine submits straight into its session node.
		for i := 0; i < nsess; i++ {
			node, tn := nodes[n+i], mesh.Node(n+i)
			node.SetWake(func() { tn.Kick(0, node.StartToken()) })
		}
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < spec.Clients; c++ {
			node := nodes[n+c%nsess]
			ops := buildWorkload(spec, int64(c))
			for w := 0; w < inflight; w++ {
				wk := &worker{}
				workers = append(workers, wk)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ch := make(chan rkv.Result, 1)
					cb := func(r rkv.Result) { ch <- r }
					for j := w; j < len(ops); j += inflight {
						t0 := time.Now()
						node.Submit(ops[j], cb)
						r := <-ch
						wk.hist.RecordDuration(time.Since(t0))
						if r.Err != nil {
							wk.failed++
						} else {
							wk.completed++
						}
					}
				}(w)
			}
		}
		go func() { wg.Wait(); closeOnce.Do(func() { close(done) }) }()
		if err := wait(done, spec.RunTimeout); err != nil {
			mesh.Close()
			return runResult{}, err
		}
		elapsed = time.Since(start)
	} else {
		pool := make([]gateway.Session, nsess)
		for i := 0; i < nsess; i++ {
			node, tn := nodes[n+i], mesh.Node(n+i)
			node.SetWake(func() { tn.Kick(0, node.StartToken()) })
			pool[i] = node
		}
		gwTrace = optrace.New(spec.TraceSample)
		gw, err := gateway.Serve("127.0.0.1:0", gateway.Config{
			Sessions:     pool,
			SessionDepth: spec.Window * spec.Batch,
			ClientQueue:  inflight + 4,
			// Bursts aligned with the quorum batch size let one
			// connection's pipeline fill a whole batch, so its responses
			// complete together and share a flush.
			DispatchBurst: spec.Batch,
			Trace:         gwTrace,
		})
		if err != nil {
			mesh.Close()
			return runResult{}, err
		}

		// Dial every client before the clock starts so connection setup
		// does not pollute the latency histograms.
		clients := make([]*gateway.Client, spec.Clients)
		for c := range clients {
			cl, err := gateway.Dial(gw.Addr())
			if err != nil {
				for _, prev := range clients[:c] {
					prev.Close()
				}
				gw.Close()
				mesh.Close()
				return runResult{}, fmt.Errorf("dial client %d: %w", c, err)
			}
			clients[c] = cl
		}

		// Each client connection runs Inflight closed-loop workers
		// striding its deterministic op list.
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < spec.Clients; c++ {
			ops := buildWorkload(spec, int64(c))
			cl := clients[c]
			for w := 0; w < inflight; w++ {
				wk := &worker{}
				workers = append(workers, wk)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < len(ops); j += inflight {
						t0 := time.Now()
						_, err := cl.Do(ops[j])
						wk.hist.RecordDuration(time.Since(t0))
						if err != nil {
							wk.failed++
						} else {
							wk.completed++
						}
					}
				}(w)
			}
		}
		go func() { wg.Wait(); closeOnce.Do(func() { close(done) }) }()
		if err := wait(done, spec.RunTimeout); err != nil {
			gw.Close()
			mesh.Close()
			return runResult{}, err
		}
		elapsed = time.Since(start)
		gwStats = gw.Stats()
		for _, cl := range clients {
			cl.Close()
		}
		gw.Close()
	}

	meshStats := mesh.Stats()
	mesh.Close()

	res := runResult{
		Name: spec.Name, Mode: spec.Mode, Window: spec.Window,
		Batch: spec.Batch, Keys: spec.Keys, Zipf: spec.Zipf,
		Clients: spec.Clients, Nodes: n, Sessions: nsess,
		ReadFrac: spec.Reads,
		GwShed:   gwStats.Shed, GwRetries: gwStats.Retries,
		MsgsSent: meshStats.Sent, BytesOut: meshStats.BytesOut, Flushes: meshStats.Flushes,
	}
	hist.Reset()
	for _, wk := range workers {
		hist.Merge(&wk.hist)
		res.Completed += wk.completed
		res.Failed += wk.failed
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
	var extra []*optrace.Tracer
	if gwTrace != nil {
		extra = append(extra, gwTrace)
	}
	if err := stampTrace(&res, nodes, extra); err != nil {
		return runResult{}, err
	}
	return res, nil
}

// wanTopology resolves -regions for n replicas: regionOf[i] is replica
// i's region after latency-aware placement, linkLat the one-way per-link
// delay the mesh injects, pickCost the per-replica cost vector sessions
// use for quorum sampling. All nil when no regions are configured (flat
// LAN). The gateway, its sessions and every client live in region 0.
func wanTopology(spec runSpec, n int) (regionOf []int, linkLat func(from, to cluster.NodeID) time.Duration, pickCost []time.Duration, err error) {
	if len(spec.Regions) == 0 {
		return nil, nil, nil, nil
	}
	sum := 0
	for _, c := range spec.Regions {
		if c < 1 {
			return nil, nil, nil, fmt.Errorf("-regions counts must be positive, got %v", spec.Regions)
		}
		sum += c
	}
	if sum != n {
		return nil, nil, nil, fmt.Errorf("-regions %v sums to %d nodes, the grid has %d", spec.Regions, sum, n)
	}
	// Raw placement: which physical region each incoming node sits in,
	// deterministically scrambled so the grid's row-major layout does not
	// accidentally align with the regions.
	raw := make([]int, 0, n)
	for r, c := range spec.Regions {
		for i := 0; i < c; i++ {
			raw = append(raw, r)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed * 7919))
	rng.Shuffle(n, func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })

	regionOf = raw
	if spec.Store == "hgrid" || spec.Store == "htgrid" {
		// Latency-aware placement: PlaceGrid clusters co-located nodes
		// into the same blocks, the home region on the top band, so
		// hierarchical quorums can stay region-local. Grid position p is
		// then occupied by physical node ids[p/cols][p%cols] — since mesh
		// IDs are the grid positions, we realize the placement by
		// relabelling regions.
		lat := make([][]time.Duration, n)
		for i := range lat {
			lat[i] = make([]time.Duration, n)
			for j := range lat[i] {
				switch {
				case i == j:
				case raw[i] == raw[j]:
					lat[i][j] = spec.WanIntra
				default:
					lat[i][j] = spec.WanCross
				}
			}
		}
		ids, err := epoch.PlaceGrid(lat, spec.Rows, spec.Cols)
		if err != nil {
			return nil, nil, nil, err
		}
		regionOf = make([]int, n)
		for r := 0; r < spec.Rows; r++ {
			for c := 0; c < spec.Cols; c++ {
				regionOf[r*spec.Cols+c] = raw[ids[r][c]]
			}
		}
	}
	ro := regionOf
	regionAt := func(id cluster.NodeID) int {
		if int(id) < n {
			return ro[id]
		}
		return 0
	}
	linkLat = func(from, to cluster.NodeID) time.Duration {
		if from == to {
			return 0
		}
		if regionAt(from) == regionAt(to) {
			return spec.WanIntra
		}
		return spec.WanCross
	}
	pickCost = make([]time.Duration, n)
	for i := range pickCost {
		if ro[i] == 0 {
			pickCost[i] = spec.WanIntra
		} else {
			pickCost[i] = spec.WanCross
		}
	}
	return regionOf, linkLat, pickCost, nil
}
