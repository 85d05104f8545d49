#!/bin/sh
# bench.sh — run the sweep-engine benchmark suite and write the raw
# `go test -json` event stream to BENCH_sweep.json (in the repo root, or
# $1 if given). Compare against the committed pre-change snapshot
# scripts/BENCH_sweep_baseline.json, e.g. with benchstat after extracting
# the Output lines:
#
#   jq -r 'select(.Action=="output").Output' scripts/BENCH_sweep_baseline.json > old.txt
#   jq -r 'select(.Action=="output").Output' BENCH_sweep.json > new.txt
#   benchstat old.txt new.txt
#
# The pattern pins the benchmarks that exercise the exact engine: the
# table regenerations that feed the acceptance criteria (Tables 2 and 3,
# every cell exact, Paths and Y from their graphs' decision diagrams), the
# h-triang and h-T-grid availability predicates (/Set: one bitset
# Available call, which evaluates the system's quorum.Gate), and the exact
# counts of gated systems from their decision diagrams (the h-triang of
# 15 processes, the 5×5 and 8×8 h-T-grid).
#
# The live path's per-layer benchmarks follow, into BENCH_layers.json
# ($2 if given): internal/wal's BenchmarkCommit (a quorum batch of 8
# records on 8 map shards, from 1 and 8 committers; fsyncs/op is the
# counted cost, ns/op this machine's file system), internal/epoch's
# BenchmarkPickCheapest (what a pick-cache miss pays on a cost-aware
# session: one exact cheapest pick, next to the eight random draws it
# replaced; reads and writes, 4x4 and 8x8, all live and two suspects)
# and internal/transport's BenchmarkLinkHop (one message's one-way trip
# over a loopback TCP pair, lock-stepped, on an unmodified link and on a
# 200 µs WithLinkLatency one: the second row minus the first minus
# 200 µs is what the hold clock adds, and its one extra alloc/op is
# send's timedMsg wrap, not the hold).
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_sweep.json}"
pattern='^(BenchmarkTable2|BenchmarkTable3|BenchmarkAvailabilityHTriang|BenchmarkAvailabilityHTGrid|BenchmarkTransversalCountsHTriang15|BenchmarkTransversalCountsHTGrid)$'
go test -json -run '^$' -bench "$pattern" -benchmem -count=5 . > "$out"
echo "wrote $out" >&2
layers="${2:-BENCH_layers.json}"
go test -json -run '^$' -bench '^BenchmarkCommit$' -benchmem -count=5 ./internal/wal > "$layers"
go test -json -run '^$' -bench '^BenchmarkPickCheapest$' -benchmem -benchtime=2000x -count=5 ./internal/epoch >> "$layers"
go test -json -run '^$' -bench '^BenchmarkLinkHop$' -benchmem -benchtime=2000x -count=5 ./internal/transport >> "$layers"
echo "wrote $layers" >&2
