#!/bin/sh
# bench_live.sh — run the live-path throughput suite and write the report
# to BENCH_live.json (in the repo root, or $1 if given).
#
# The suite measures the replicated store end to end with closed-loop
# clients on the headline cells
#
#   tcp/w1         loopback-TCP mesh, one op in flight      (classic client)
#   tcp/w8         loopback-TCP mesh, window of 8           (pipelined)
#   tcp/w8/k64b8   window 8 over 64 keys, 8 ops per quorum
#                  round                                    (batched multi-key)
#   mem/w8         in-process channels, window of 8         (no-syscall ceiling)
#   mem/w8/k64b8   batched multi-key at the mem ceiling
#   tcp/w8/k64b8/disk  the batched cell with every replica
#                  on the durable WAL backend, real fsyncs  (group commit
#                  amortizes durability: one fsync per quorum round)
#   tcp/w8/rc      window 8 with a live majority→h-T-grid
#                  reconfiguration a quarter of the way in  (steady state
#                  after the swap; the cell also reports pre/post split
#                  throughput and the transition error count)
#   tcp/w8/k64b8/tune  the batched cell with -auto-tune on node 0 and a
#                  mid-run 50%→95% read shift: the tuner must drive a
#                  live swap off the measured mix (zero transition
#                  errors) and beat tcp/w8/k64b8/hold — the same shifted
#                  workload pinned to symmetric majority — by >= 1.3x
#                  post-shift throughput with fewer msgs/op (the
#                  asymmetric-read-quorum acceptance gates)
#   tcp/w8/k64b8/lease the 90%-read workload with per-shard read leases
#                  on the client node: once the workload window measures
#                  read-heavy the holder serves its reads locally with
#                  zero messages. Gated against tcp/w8/k64b8/r90 — the
#                  identical mix on the plain quorum path — at >= 2x
#                  throughput AND strictly fewer msgs/op (lease_speedup)
#
# plus the per-batch-size sweep tcp/w8/k64b{1,2,4,8,16} and the
# per-key-count sweep tcp/w8/k{1,4,16,64,256}b8, the gateway efficiency
# pair (sess/w8/k64b8/c16x8 vs gw/w8/k64b8/c16x8: the same 128
# closed-loop client streams submitted in-process vs multiplexed through
# the gateway tier, best-of-5 interleaved trials each) and the 3-region
# WAN tail cells wan3/{majority,hgrid,htgrid}/c1000 (1000 gateway
# clients, zipf-skewed keys, 200µs intra-region / 10ms cross-region
# links, latency-aware grid placement), and reports ops/sec with
# p50/p95/p99/p999 latency from the HDR-style histogram, per-cell
# transport counters (messages, bytes, flushes — the msgs/flush ratio is
# the coalescing win), per-cell server-side stage breakdowns (op tracing
# at the default 1-in-64 sampling: queue/decode/lock/fsync/encode/send
# medians explaining where the microseconds went inside the replicas,
# sanity-gated on the headline batched cell), and the headline ratios:
#
#   pipeline_speedup    tcp/w8 over tcp/w1        (acceptance gate: >= 3x)
#   batch_speedup       tcp/w8/k64b8 over tcp/w8  (acceptance gate: >= 2x)
#   gateway_efficiency  gw cell over sess cell    (acceptance gate: >= 0.7x)
#   lease_speedup       lease cell over r90 cell  (acceptance gate: >= 2x,
#                       plus strictly fewer msgs/op)
#   wan p99 tail        hgrid p99 < majority p99 and htgrid p99 <
#                       majority p99 at 1000 clients on the 3-region
#                       topology (two acceptance gates, one per flavor)
#
# The run is compared against the committed pre-change snapshot
# scripts/BENCH_live_baseline.json (benchstat-style old/new/delta table)
# and THE SCRIPT EXITS NONZERO if any cell's throughput regressed more
# than the tolerance (override with TOLERANCE=0.15 or whatever
# fraction), so CI can use it as a perf gate. The committed baseline is
# a conservative floor (per-cell minimum over several healthy runs) and
# the default tolerance is 25%: on a shared 1-CPU box individual cells
# swing ±20% run to run even as best-of-3, so a tighter default gates
# machine noise, not code. Order-of-magnitude collapses — the failure
# mode this gate exists for — still trip it instantly. The
# within-run ratio gates (pipeline, batch, gateway efficiency, WAN
# tails) stay precise because machine speed cancels inside one run.
# Refresh the baseline by min-merging trusted BENCH_live.json runs.
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_live.json}"
tol="${TOLERANCE:-0.25}"
# 8000 ops/client: batched cells push >200k ops/s, so short runs would
# measure scheduler jitter, not the protocol.
ops="${OPS:-8000}"
go build -o /tmp/hquorum-loadgen ./cmd/loadgen
# -stage-sanity: every cell's result is stamped with the server-side
# stage breakdown (op tracing at the default 1-in-64 sampling); the
# headline batched cell must show >= 5 stages with samples and the sum
# of its server stage medians must fit inside the client-observed p50 —
# a physically-necessary bound that trips if the trace plumbing rots
# (double stamps, leaked records, stages folding garbage).
if [ -f scripts/BENCH_live_baseline.json ]; then
	/tmp/hquorum-loadgen -suite -suite-batch -suite-keys -suite-gw -suite-wan -suite-tune -suite-lease -ops "$ops" -json "$out" \
		-stage-sanity tcp/w8/k64b8 \
		-compare scripts/BENCH_live_baseline.json -tolerance "$tol"
else
	/tmp/hquorum-loadgen -suite -suite-batch -suite-keys -suite-gw -suite-wan -suite-tune -suite-lease -ops "$ops" -json "$out" \
		-stage-sanity tcp/w8/k64b8
fi
echo "wrote $out" >&2

# Metrics snapshot: boot a real 2×2 kvd cluster on loopback with read
# leases and the metrics endpoint on replica 0, drive one write+read
# through replica 3 in client mode, and archive /metrics next to the
# throughput report — the ops-facing counters (transport, pick cache,
# workload window, lease grants/renewals) for the exact binary the
# suite above measured.
msnap="${out%.json}_metrics.json"
pdir="$(mktemp -d)"
cleanup() {
	for f in "$pdir"/*.pid; do
		[ -f "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
	done
	rm -rf "$pdir"
}
trap cleanup EXIT
cat >"$pdir/peers.txt" <<'EOF'
0 127.0.0.1:7461
1 127.0.0.1:7462
2 127.0.0.1:7463
3 127.0.0.1:7464
EOF
go build -o /tmp/hquorum-kvd ./cmd/kvd
for i in 1 2; do
	/tmp/hquorum-kvd -id "$i" -peers "$pdir/peers.txt" -rows 2 -cols 2 &
	echo $! >"$pdir/$i.pid"
done
# Replica 0 holds the leases: -lease-min-read-frac=-1 grants regardless
# of its (idle) measured mix, so the snapshot shows live lease counters.
# Grant waves are all-ack over every peer, so nothing activates until
# replica 3 is up AND idle: while the client below sits out its boot
# write quarantine its parked write nacks every grant wave (writes win
# ties with acquisition by design). The short -attempt-timeout is wave
# retry patience: a wave lost to replica 3's restart (the lazy-redial
# transport eats one send per dead connection) aborts and retries fast.
# -trace-sample 1 traces every op: the probe workload below is two ops,
# so the archived snapshot's optrace group must not sample them away.
/tmp/hquorum-kvd -id 0 -peers "$pdir/peers.txt" -rows 2 -cols 2 -attempt-timeout 300ms \
	-lease -lease-ttl 1s -lease-min-read-frac=-1 -trace-sample 1 -metrics-addr 127.0.0.1:7460 &
echo $! >"$pdir/0.pid"
sleep 1
# Replica 3 doubles as the client for one write+read (-lease-ttl matches
# the holder's so its boot quarantine covers the holder's TTL)...
/tmp/hquorum-kvd -id 3 -peers "$pdir/peers.txt" -rows 2 -cols 2 -lease-ttl 1s \
	-key bench:probe -write hello -then-read -timeout 30s
# ...then rejoins as a steady replica so the whole universe is up and
# idle while replica 0 acquires and renews its leases.
/tmp/hquorum-kvd -id 3 -peers "$pdir/peers.txt" -rows 2 -cols 2 &
echo $! >"$pdir/3.pid"
sleep 3
curl -s --retry 3 --max-time 10 http://127.0.0.1:7460/metrics >"$msnap"
echo "wrote $msnap" >&2

# Human-readable stage table for the same snapshot: what an operator
# sees from `quorumctl metrics`, archived next to the raw JSON.
stxt="${out%.json}_stages.txt"
go build -o /tmp/hquorum-quorumctl ./cmd/quorumctl
/tmp/hquorum-quorumctl metrics 127.0.0.1:7460 >"$stxt"
echo "wrote $stxt" >&2
