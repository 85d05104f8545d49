#!/bin/sh
# chaos.sh — the chaos gate: sweep the replicated register (every cell
# epoch-versioned — one epoch.Params, one epoch store per node — and every
# cell submitting its operations through rkv.Node.Submit, the one client
# path kvd, the gateway and hqbench run, on h-grid, h-T-grid and majority
# configs) and the distributed lock across pinned seeds
# under the standard nemesis schedules (crash storm, rolling restart,
# link flap, minority partition, churn, column cut), and require
#
#   1. zero safety violations (linearizability and mutual exclusion), and
#   2. a byte-identical summary across two back-to-back runs — the sweep
#      is a deterministic regression artifact, not flaky noise.
#
# 200 seeds x 46 (case, schedule) cells = 9200 simulated runs (41 register
# cells + 5 lock cells, one summary line each) — including hqbench's
# system under crash storm and minority partition (hT44/sut: 4x4 h-T-grid
# on disk, cost-aware picks, one lease holder submitting Window 8 x
# Batch 8 bursts; its lines print grants, local_versions and
# one_round_reads and fail at zero), and
# a pipelined register cell (window=4, concurrent ops per node), a
# multi-key batched cell (8 keys, 4 ops per quorum round, checked for
# per-key linearizability) — both also under a mid-burst schedule that
# crashes node 6 while its first burst's rounds are on the wire, timed
# from the runner's own pacing — two cost-aware h-T-grid cells (every node
# picks the cheapest quorum, so reads ride write quorums and the crash
# storm and the partition hit exactly the line all of them favour; that
# line is a write quorum, so reads that find it unanimous end after one
# round — these two lines and majority-5/disk, whose read thresholds hold
# a write threshold, also print the cell's summed one_round_reads and fail
# the cell at zero), four
# durable cells where every node runs
# the disk WAL backend and restarts recover state by log replay, three
# read-lease cells (holders crashed, writers crashed mid-invalidation, a
# holder pipelining Window 4 x Batch 4 over its own leased shards) whose
# lines also print the cell's summed lease grants and locally versioned
# writes and fail the cell when either is zero, and an
# auto-tune cell whose mid-run 50%→95% read shift makes node 0's workload
# tuner reconfigure the cluster live under a crash storm; the whole gate
# takes about two minutes of wall clock.
set -eux
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
go build -o "$out/chaos" ./cmd/chaos
"$out/chaos" -seeds 200 >"$out/sweep.1"
"$out/chaos" -seeds 200 >"$out/sweep.2"
diff "$out/sweep.1" "$out/sweep.2"
cat "$out/sweep.1"
