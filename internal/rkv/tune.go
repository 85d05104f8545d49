package rkv

// Workload-aware auto-tuning: every node carries a cheap sliding-window
// workload profiler (package tuner); a node configured with AutoTune
// periodically scores the whole quorum-configuration space against the
// measured mix and, when a different configuration wins by the policy's
// margin and holds the win, drives the existing epoch reconfiguration to
// it. The evaluation runs on the node's event loop off a timer token, so
// it behaves identically under the deterministic simulator and on a live
// transport; the optimizer itself uses only fixed internal seeds, keeping
// chaos double-runs byte-identical.
//
// The profiler is also exported over the wire (msgWorkloadReq, answered on
// the replica fast path) so `quorumctl tune` and the kvd metrics endpoint
// can see what a node is measuring without joining the cluster.

import (
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/epoch"
	"hquorum/internal/lease"
	"hquorum/internal/optrace"
	"hquorum/internal/tuner"
)

// Workload-exchange wire messages. 0x1f is the last slot of rkv's 0x10
// block; the reply opens the 0x30 overflow block (0x20 belongs to dmutex).
type (
	// msgWorkloadReq asks a node for its profiler snapshot. Not epoch-gated:
	// it is diagnostics, meaningful whatever config the node runs.
	msgWorkloadReq struct {
		Seq uint64
	}
	// msgWorkloadReply carries the snapshot (tuner.Workload wire form) plus
	// the node's current epoch config, so one round trip gives an operator
	// both the mix and what serves it.
	msgWorkloadReply struct {
		Seq uint64
		Wl  []byte
		Cfg []byte
	}
)

const (
	tagWorkloadReq   = 0x1f
	tagWorkloadReply = 0x30
)

// tokenTune fires one auto-tune evaluation.
type tokenTune struct{}

// TuneToken returns the timer token that starts (and keeps) the node's
// auto-tune loop — delivered automatically by Start on a cluster.Network,
// or via a transport Kick on live deployments.
func TuneToken() any { return tokenTune{} }

// observeOp feeds one client operation, finished at now, to the profiler.
func (n *Node) observeOp(now time.Duration, op *opState, sub *subOp, err error) {
	n.profile.Observe(now, sub.kind == OpRead, now-op.tries.Start, err != nil, lease.KeyHash(sub.key))
}

// Workload returns the node's profiler snapshot as of now (the node's
// monotonic clock — env.Now() in handlers, transport Now elsewhere).
func (n *Node) Workload(now time.Duration) tuner.Workload {
	return n.profile.Snapshot(now)
}

// PickCacheStats returns how many quorum picks were served from the pick
// cache versus drawn fresh. Safe from any goroutine.
func (n *Node) PickCacheStats() (hits, misses uint64) {
	return n.pickHits.Load(), n.pickMisses.Load()
}

// OneRoundReads returns how many reads under ReadWriteback finished after
// phase 1 because their quorum contained a write quorum and agreed on the
// version — the write-backs not sent. Cumulative; safe from any goroutine.
func (n *Node) OneRoundReads() uint64 { return n.oneRoundReads.Load() }

// Tracer returns the node's op tracer (implements optrace.Source, the
// interface the transport discovers to stamp its stages into the same
// histogram set). Never nil; disabled unless Config.TraceSample > 0.
func (n *Node) Tracer() *optrace.Tracer { return n.trace }

// TraceSnapshot returns the tracer's per-stage histograms and tag
// counters — the metrics-endpoint form. Safe from any goroutine.
func (n *Node) TraceSnapshot() optrace.Snapshot { return n.trace.Snapshot() }

// armTune schedules the next auto-tune evaluation.
func (n *Node) armTune(env cluster.Env) {
	env.After(n.cfg.AutoTune.Interval, tokenTune{})
}

// onTune runs one auto-tune evaluation: snapshot the profiler, score the
// configuration space, and start a reconfiguration if the policy says a
// winner has earned it. While the cluster is mid-transition (joint config,
// or this node is already coordinating) the evaluation is skipped and the
// driver's hold streak reset — tuning decisions made against union quorums
// would compare against the wrong baseline.
func (n *Node) onTune(env cluster.Env) {
	if n.tune == nil {
		return
	}
	defer n.armTune(env)
	cfg := n.cfg.Epochs.Snapshot()
	if cfg.Joint() || n.rc.phase != rcIdle {
		n.tune.Reset()
		return
	}
	wl := n.profile.Snapshot(env.Now())
	dec, err := n.tune.Evaluate(cfg.Cur, wl)
	if err != nil || !dec.Swap {
		return
	}
	n.startReconfig(env, dec.Best.Params, 0, 0, false)
}

// NewWorkloadClient fetches one node's profiler snapshot and epoch
// config — the client side of `quorumctl tune` and the kvd metrics
// endpoint's remote mode — and calls onDone once. A malformed reply is
// dropped, and the retry re-asks. Kick it off by delivering StartToken to
// its Timer.
func NewWorkloadClient(contact cluster.NodeID, retry time.Duration, onDone func(wl tuner.Workload, cfg epoch.Config, haveCfg bool)) *RequestClient {
	return newRequestClient(contact, msgWorkloadReq{Seq: 1}, retry, func(msg any) bool {
		m, ok := msg.(msgWorkloadReply)
		if !ok || m.Seq != 1 {
			return false
		}
		wl, err := tuner.DecodeWorkload(m.Wl)
		if err != nil {
			return false
		}
		var cfg epoch.Config
		haveCfg := false
		if len(m.Cfg) > 0 {
			if cfg, err = epoch.DecodeConfig(m.Cfg); err != nil {
				return false
			}
			haveCfg = true
		}
		if onDone != nil {
			onDone(wl, cfg, haveCfg)
		}
		return true
	})
}

// registerTuneWire registers the workload-exchange codecs (called from
// RegisterBinaryWire).
func registerTuneWire(reg *codec.Registry) {
	reg.Register(tagWorkloadReq, msgWorkloadReq{},
		func(b []byte, v any) []byte {
			return codec.AppendUvarint(b, v.(msgWorkloadReq).Seq)
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgWorkloadReq{Seq: r.Uvarint()}
			return m, r.Err()
		})
	reg.Register(tagWorkloadReply, msgWorkloadReply{},
		func(b []byte, v any) []byte {
			m := v.(msgWorkloadReply)
			b = codec.AppendUvarint(b, m.Seq)
			b = codec.AppendString(b, string(m.Wl))
			return codec.AppendString(b, string(m.Cfg))
		},
		func(data string) (any, error) {
			r := codec.NewReader(data)
			m := msgWorkloadReply{Seq: r.Uvarint(), Wl: []byte(r.String()), Cfg: []byte(r.String())}
			return m, r.Err()
		})
}
