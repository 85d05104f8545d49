// Package sut is the benchmark's adapter to the system under test. It
// is the only package that imports hquorum/internal/..., and this file
// is the only one that constructs the product's types, so a change to
// the product's API is absorbed here and nowhere else.
//
// The system is fixed for every workload: 16 replicas as a 4×4 h-T-grid
// on loopback TCP with the binary codec, epoch-versioned, linearizable
// reads (write-back on), Window 8 × Batch 8, operations injected only
// through Submit on session nodes outside the member set.
package sut

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/epoch"
	"hquorum/internal/gateway"
	"hquorum/internal/history"
	"hquorum/internal/lease"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
	"hquorum/internal/wal"
)

// The fixed shape of the system under test.
const (
	Rows, Cols = 4, 4
	Members    = Rows * Cols
	Window     = 8
	Batch      = 8
	// TraceSample is the product's 1-in-N op sampling while its stage
	// timings are collected.
	TraceSample = 64
	// WanIntra and WanCross are the one-way delays the wan3 topology
	// injects inside a region and between regions.
	WanIntra = 200 * time.Microsecond
	WanCross = 10 * time.Millisecond
	// attemptTimeout and opDeadline are cmd/loadgen's defaults.
	attemptTimeout = 500 * time.Millisecond
	opDeadline     = 15 * time.Second
	// wanShuffle seeds the raw region assignment. The topology is part
	// of the system, not of the workload, so it does not follow --seed.
	wanShuffle = 7919
)

// wanRegions is the wan3 topology: replicas per region. Sessions, the
// gateway and every client sit in region 0.
var wanRegions = []int{8, 4, 4}

// Op is one client operation.
type Op struct {
	Read  bool
	Key   string
	Value string
	// TraceID, when set, marks the operation as sampled by the
	// benchmark's tracer; decorators record spans under this ID.
	TraceID string
}

// Result is a completed operation: the value read (reads), the version
// counter the protocol stamped (an ordering hint for the history
// checker), and the error if the operation failed.
type Result struct {
	Value string
	Order uint64
	Err   error
}

// Submitter is an asynchronous session: cb runs on the session's event
// goroutine and must not block.
type Submitter interface {
	Submit(op Op, cb func(Result))
}

// Caller is a synchronous client connection; Do may be called from
// many goroutines and pipelines them on one connection.
type Caller interface {
	Do(op Op) Result
}

// Spec selects one configuration of the fixed system.
type Spec struct {
	// Disk backs every replica with a WAL under DataRoot (real fsyncs).
	Disk     bool
	DataRoot string
	// Sessions is the number of session nodes (IDs 16, 17, ...).
	Sessions int
	// Gateway, when positive, serves the sessions through gateway.Serve
	// and dials this many client connections, each allowed Depth
	// requests in flight. The single session then holds read leases.
	Gateway int
	Depth   int
	// WAN injects the wan3 link delays and makes sessions cost-aware.
	WAN bool
	// Mem replaces loopback TCP by the in-process mesh (no codec, no
	// sockets): the mem rung of the ladder.
	Mem bool
	// Decor, when set, puts the benchmark's decorators around every
	// node, session env and session.
	Decor *Decor
	// ProductTrace turns the product's own 1-in-TraceSample op tracing
	// on (rkv.Config.TraceSample and the gateway's tracer).
	ProductTrace bool
}

// Cluster is a booted system.
type Cluster struct {
	decor   *Decor
	nodes   []*rkv.Node
	mesh    *transport.Mesh
	mem     *transport.MemMesh
	gw      *gateway.Server
	gwTrace *optrace.Tracer
	clients []*gateway.Client
	pool    []gateway.Session
}

func params() epoch.Params {
	return epoch.Params{
		Flavor:  epoch.FlavorHTGrid,
		Rows:    Rows,
		Cols:    Cols,
		Members: epoch.MemberRange(0, Members),
	}
}

func leaseConfig() *lease.Config {
	return &lease.Config{
		Shards:  16,
		TTL:     time.Second,
		Check:   100 * time.Millisecond,
		MinOps:  32,
		Acquire: true,
	}
}

// Boot builds and starts the system. On any error everything already
// started is stopped.
func Boot(spec Spec) (*Cluster, error) {
	c := &Cluster{decor: spec.Decor}
	universe := Members + spec.Sessions
	if spec.Decor != nil {
		spec.Decor.viaGateway = spec.Gateway > 0
	}
	var linkLat func(from, to cluster.NodeID) time.Duration
	var pickCost []time.Duration
	if spec.WAN {
		regionOf, err := wanPlacement()
		if err != nil {
			return nil, err
		}
		linkLat, pickCost = wanLinks(regionOf)
	}
	handlers := make([]cluster.Handler, universe)
	for i := 0; i < universe; i++ {
		es, err := epoch.NewStore(universe, params())
		if err != nil {
			return nil, err
		}
		cfg := rkv.Config{
			Epochs:        es,
			Timeout:       attemptTimeout,
			OpDeadline:    opDeadline,
			ReadWriteback: true,
			Window:        Window,
			Batch:         Batch,
			OpGap:         -1,
		}
		if spec.ProductTrace {
			cfg.TraceSample = TraceSample
		}
		session := i >= Members
		if session && pickCost != nil {
			cfg.PickCost = pickCost
			cfg.PickSamples = 8
		}
		if session && spec.Gateway > 0 {
			cfg.Lease = leaseConfig()
		}
		if !session && spec.Disk {
			cfg.Storage = "disk"
			cfg.DataDir = filepath.Join(spec.DataRoot, fmt.Sprintf("n%02d", i))
		}
		node, err := rkv.NewNode(cluster.NodeID(i), cfg)
		if err != nil {
			c.closeStorage()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
		handlers[i] = node
		if spec.Decor != nil {
			handlers[i] = spec.Decor.Handler(i, node)
		}
	}
	if spec.Mem {
		c.mem = transport.NewMemMesh(handlers)
	} else {
		var opts []transport.Option
		if linkLat != nil {
			opts = append(opts, transport.WithLinkLatency(linkLat))
		}
		mesh, err := transport.NewMesh(handlers, opts...)
		if err != nil {
			c.closeStorage()
			return nil, err
		}
		c.mesh = mesh
		mesh.Start()
	}
	for i := Members; i < universe; i++ {
		node, i := c.nodes[i], i
		node.SetWake(func() { c.kick(i, node.StartToken()) })
		var sess gateway.Session = node
		if spec.Decor != nil {
			sess = spec.Decor.Session(node)
		}
		c.pool = append(c.pool, sess)
	}
	if spec.Gateway > 0 {
		c.kick(Members, rkv.LeaseToken())
		if spec.ProductTrace {
			c.gwTrace = optrace.New(TraceSample)
		}
		gw, err := gateway.Serve("127.0.0.1:0", gateway.Config{
			Sessions:      c.pool,
			SessionDepth:  Window * Batch,
			ClientQueue:   spec.Depth + 4,
			DispatchBurst: Batch,
			Trace:         c.gwTrace,
		})
		if err != nil {
			c.Stop()
			c.closeStorage()
			return nil, err
		}
		c.gw = gw
		for i := 0; i < spec.Gateway; i++ {
			cl, err := gateway.Dial(gw.Addr())
			if err != nil {
				c.Stop()
				c.closeStorage()
				return nil, err
			}
			c.clients = append(c.clients, cl)
		}
	}
	return c, nil
}

func (c *Cluster) kick(i int, token any) {
	if c.mem != nil {
		c.mem.Kick(i, 0, token)
		return
	}
	c.mesh.Node(i).Kick(0, token)
}

// Sessions returns the direct submitters, one per session node.
func (c *Cluster) Sessions() []Submitter {
	out := make([]Submitter, len(c.pool))
	for i, s := range c.pool {
		out[i] = submitter{s}
	}
	return out
}

// Callers returns the gateway client connections (empty without a
// gateway).
func (c *Cluster) Callers() []Caller {
	out := make([]Caller, len(c.clients))
	for i, cl := range c.clients {
		out[i] = caller{cl: cl, d: c.decor}
	}
	return out
}

// Stop closes clients, gateway and mesh, and waits for their loops. It
// does not touch storage: after Stop alone the WALs hold exactly what
// they had synced, which is what a killed process leaves behind.
func (c *Cluster) Stop() {
	for _, cl := range c.clients {
		cl.Close()
	}
	c.clients = nil
	if c.gw != nil {
		c.gw.Close()
		c.gw = nil
	}
	if c.mesh != nil {
		c.mesh.Close()
		c.mesh = nil
	}
	if c.mem != nil {
		c.mem.Close()
		c.mem = nil
	}
}

// CloseStorage shuts every replica's storage down cleanly. Call it
// after Stop.
func (c *Cluster) CloseStorage() error { return c.closeStorage() }

func (c *Cluster) closeStorage() error {
	var first error
	for _, n := range c.nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Counters is one snapshot of every public counter the layers export.
// All fields are cumulative since boot.
type Counters struct {
	Sent, Received, Dropped, FastPath, BytesOut, Flushes uint64

	WALAppends, WALSyncRounds, WALFileSyncs, WALSnapshots, WALBytes uint64

	LeaseGrants, LeaseRenewals, LeaseLocalReads, LeaseInvalRounds, LeaseExpiries uint64

	PickHits, PickMisses uint64

	GwShed, GwRetries, GwFailed uint64
}

// Counters reads the Stats() snapshots of transport, WAL, lease, pick
// cache and gateway.
func (c *Cluster) Counters() Counters {
	var k Counters
	if c.mesh != nil {
		s := c.mesh.Stats()
		k.Sent, k.Received, k.Dropped = s.Sent, s.Received, s.Dropped
		k.FastPath, k.BytesOut, k.Flushes = s.FastPath, s.BytesOut, s.Flushes
	}
	for i, n := range c.nodes {
		w := n.WALStats()
		k.WALAppends += w.Appends
		k.WALSyncRounds += w.SyncRounds
		k.WALFileSyncs += w.FileSyncs
		k.WALSnapshots += w.Snapshots
		k.WALBytes += w.Bytes
		l := n.LeaseStats()
		k.LeaseGrants += l.Grants
		k.LeaseRenewals += l.Renewals
		k.LeaseLocalReads += l.LocalReads
		k.LeaseInvalRounds += l.InvalRounds
		k.LeaseExpiries += l.Expiries
		if i >= Members {
			h, m := n.PickCacheStats()
			k.PickHits += h
			k.PickMisses += m
		}
	}
	if c.gw != nil {
		s := c.gw.Stats()
		k.GwShed, k.GwRetries, k.GwFailed = s.Shed, s.Retries, s.Failed
	}
	return k
}

// StageP50s merges every node's (and the gateway's) op-trace snapshot
// and returns each stage's median in microseconds, with the number of
// sampled records. Stages nothing sampled report 0.
func (c *Cluster) StageP50s() (map[string]float64, uint64, error) {
	var merged optrace.Snapshot
	for _, n := range c.nodes {
		if err := merged.Merge(n.TraceSnapshot()); err != nil {
			return nil, 0, err
		}
	}
	if c.gwTrace != nil {
		if err := merged.Merge(c.gwTrace.Snapshot()); err != nil {
			return nil, 0, err
		}
	}
	out := map[string]float64{}
	for _, name := range optrace.StageNames() {
		out[name] = merged.Stages[name].P50Us
	}
	return out, merged.Sampled, nil
}

type submitter struct{ s gateway.Session }

func (s submitter) Submit(op Op, cb func(Result)) {
	s.s.Submit(toRKV(op), func(r rkv.Result) { cb(fromRKV(r)) })
}

type caller struct {
	cl *gateway.Client
	d  *Decor
}

func (c caller) Do(op Op) Result {
	var t0 int64
	if op.TraceID != "" {
		t0 = c.d.Log.Now()
	}
	rep, err := c.cl.Do(toRKV(op))
	if op.TraceID != "" {
		c.d.span("gateway.do", "client.op", op.TraceID, t0)
	}
	return Result{Value: rep.Value, Order: rep.Version.Counter, Err: err}
}

// toRKV builds the product's op. A sampled read carries its trace ID
// in the value field, which reads do not use; the session decorator
// takes it out again before the op reaches the store.
func toRKV(op Op) rkv.Op {
	if op.Read {
		return rkv.Op{Kind: rkv.OpRead, Key: op.Key, Value: op.TraceID}
	}
	return rkv.Op{Kind: rkv.OpWrite, Key: op.Key, Value: op.Value}
}

func fromRKV(r rkv.Result) Result {
	return Result{Value: r.Value, Order: r.Version.Counter, Err: r.Err}
}

// wanPlacement assigns each grid position a region: the raw 8/4/4
// assignment is scrambled so it does not line up with the grid by
// accident, then epoch.PlaceGrid clusters co-located nodes onto the
// same grid lines, as cmd/loadgen's wan3 cells do.
func wanPlacement() ([]int, error) {
	raw := make([]int, 0, Members)
	for r, n := range wanRegions {
		for i := 0; i < n; i++ {
			raw = append(raw, r)
		}
	}
	rng := rand.New(rand.NewSource(wanShuffle))
	rng.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	lat := make([][]time.Duration, Members)
	for i := range lat {
		lat[i] = make([]time.Duration, Members)
		for j := range lat[i] {
			switch {
			case i == j:
			case raw[i] == raw[j]:
				lat[i][j] = WanIntra
			default:
				lat[i][j] = WanCross
			}
		}
	}
	ids, err := epoch.PlaceGrid(lat, Rows, Cols)
	if err != nil {
		return nil, err
	}
	regionOf := make([]int, Members)
	for r := 0; r < Rows; r++ {
		for col := 0; col < Cols; col++ {
			regionOf[r*Cols+col] = raw[ids[r][col]]
		}
	}
	return regionOf, nil
}

// wanLinks turns a placement into the mesh's one-way link delay and the
// per-member cost vector sessions pick quorums by.
func wanLinks(regionOf []int) (func(from, to cluster.NodeID) time.Duration, []time.Duration) {
	regionAt := func(id cluster.NodeID) int {
		if int(id) < Members {
			return regionOf[id]
		}
		return 0
	}
	linkLat := func(from, to cluster.NodeID) time.Duration {
		switch {
		case from == to:
			return 0
		case regionAt(from) == regionAt(to):
			return WanIntra
		default:
			return WanCross
		}
	}
	cost := make([]time.Duration, Members)
	for i := range cost {
		cost[i] = linkLat(cluster.NodeID(Members), cluster.NodeID(i))
	}
	return linkLat, cost
}

// HistoryOp is one recorded invocation for the linearizability check.
type HistoryOp struct {
	Client    int
	Read      bool
	Key       string
	Value     string
	Order     uint64
	Invoke    time.Duration
	Return    time.Duration
	Completed bool
}

// CheckLinearizable runs the product's per-key register checker.
func CheckLinearizable(ops []HistoryOp) error {
	hs := make([]history.Op, len(ops))
	for i, o := range ops {
		kind := history.KindWrite
		if o.Read {
			kind = history.KindRead
		}
		hs[i] = history.Op{
			Client: o.Client, Kind: kind, Key: o.Key, Value: o.Value, Order: o.Order,
			Invoke: o.Invoke, Return: o.Return, Completed: o.Completed,
		}
	}
	return history.CheckRegisterPerKey(hs)
}

// Constructors for the isolated probes (probes.go).

// newSimNode builds node i of the fixed system for the deterministic
// simulator (memory storage, no tracing).
func newSimNode(i, universe int) (*rkv.Node, error) {
	es, err := epoch.NewStore(universe, params())
	if err != nil {
		return nil, err
	}
	return rkv.NewNode(cluster.NodeID(i), rkv.Config{
		Epochs:        es,
		ReadWriteback: true,
		Window:        Window,
		Batch:         Batch,
		OpGap:         -1,
	})
}

func dialStub(gw *gateway.Server) (*gateway.Client, error) { return gateway.Dial(gw.Addr()) }

func newRegistry() *codec.Registry {
	reg := codec.NewRegistry()
	rkv.RegisterBinaryWire(reg)
	return reg
}

func newPickers() (*epoch.Pickers, error) { return epoch.NewPickers(Members, params()) }

func openWAL(dir string) (*wal.Log, error) {
	return wal.Open(dir, wal.Options{Shards: rkv.DefaultShards})
}

func walPut(shard int, key string, counter uint64, value string) wal.Record {
	return wal.Record{Shard: shard, Kind: wal.KindPut, Key: key, Counter: counter, Writer: Members, Value: value}
}

func newLeaseTable(now time.Duration) *lease.Table {
	t := lease.NewTable()
	t.Record(Members, lease.Entry{Mask: lease.MaskAll(16), Shards: 16, Expiry: now + time.Hour}, now)
	return t
}

func serveStub(depth int) (*gateway.Server, error) {
	return gateway.Serve("127.0.0.1:0", gateway.Config{
		Sessions:      []gateway.Session{stubSession{}},
		SessionDepth:  Window * Batch,
		ClientQueue:   depth + 4,
		DispatchBurst: Batch,
	})
}

// stubSession completes every operation at once, so a gateway over it
// measures the gateway alone.
type stubSession struct{}

var stubValue = string(make([]byte, 64))

func (stubSession) Submit(op rkv.Op, cb func(rkv.Result)) {
	r := rkv.Result{Kind: op.Kind, Key: op.Key}
	if op.Kind == rkv.OpRead {
		r.Value = stubValue
	}
	cb(r)
}
