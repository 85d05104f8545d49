#!/bin/sh
# verify.sh — the tier-1 gate (see ROADMAP.md): build everything, vet
# everything, run the full test suite, and run the analysis package —
# the only package with intentional shared mutable state (memo cache,
# progress hook, work-stealing counters) — under the race detector.
set -eux
cd "$(dirname "$0")/.."
go build ./...
# Linux holds injected link delays on a timerfd (sleeper_linux.go); every
# other platform gets the time.Timer sleeper, which nothing here would
# otherwise compile. Standard library only, so this builds offline.
GOOS=darwin GOARCH=arm64 go build ./internal/transport/
go vet ./...
# Every Go file is gofmt-clean.
if [ -n "$(gofmt -l .)" ]; then gofmt -l .; exit 1; fi
# The binary codec is the only wire codec: the reflective gob fallback is
# gone and must not grow back unnoticed. (Not `! grep`: a `!` pipeline
# never trips `set -e`.)
if grep -rn 'encoding/gob' --include='*.go' internal cmd *.go; then exit 1; fi
# One-round reads and the kind-pure batch fill are selected by the quorum
# the node picked and by nothing else: no environment switch may ship in
# the round engine or the quorum source.
if grep -rn 'os\.Getenv' --include='*.go' internal/rkv internal/epoch; then exit 1; fi
# The lock has one quorum source, its quorum.System: the epoch-versioned
# mode is gone and must not grow back unnoticed.
if go list -deps ./internal/dmutex | grep -x 'hquorum/internal/epoch'; then exit 1; fi
# Availability circuits are lowered from quorum.Gate formulas: no
# construction compiles one by hand beside its gate.
if grep -rln 'NewCircuitBuilder' --include='*.go' . | grep -v -e '^\./internal/analysis/' -e '^\./internal/quorum/'; then exit 1; fi
# The tuner counts availability on the pickers' gates, not on per-flavor
# predicates of its own.
if go list -f '{{join .Imports "\n"}}' ./internal/tuner | grep -x -e 'hquorum/internal/hgrid' -e 'hquorum/internal/htgrid' -e 'hquorum/internal/htriang'; then exit 1; fi
go test ./...
# The facade example submits a write chain, crashes three replicas and
# panics if the read after the crashes is stale: run it, not just build it.
go run ./examples/replicated-kv
go test -race ./internal/analysis/...
# The protocol and chaos layers share state with test harnesses
# (recorders, result slices) and the transport is genuinely concurrent:
# run them under the race detector too. rkv's sharded replica store and
# batched rounds (shards.go / batch_test.go) are exercised from multiple
# transport reader goroutines via the fast path, so the rkv and transport
# entries here are load-bearing for the multi-key engine. The epoch store
# is read on replica fast paths while coordinators install configs, so it
# races under real concurrency too, and its picks and CoversWrite evaluate
# the compiled quorum.Gate formulas (compiled once, read from every
# coordinator) — the quorum package is on the live path with them.
go test -race ./internal/epoch/... ./internal/quorum/... ./internal/dmutex/... ./internal/rkv/... ./internal/transport/... ./internal/nemesis/... ./internal/history/...
# One-round reads report sub-operations from the phase-1 reply handler
# while their round is still in flight, and the kind-pure fill compacts the
# submit queue in place: repeat their simulator tests under the detector.
go test -race -count=5 -run 'OneRound|KindPure|RestartedAfterEarly' ./internal/rkv/
# The live-path engine's codec and histogram are shared by concurrent
# transport readers/writers and per-worker recorders: race them too.
go test -race ./internal/codec/... ./internal/histo/...
# The op tracer is touched from every hot goroutine at once: transport
# readers sample and stamp, writers stamp encode/send, event loops fold
# completed records into the shared histograms, and metrics endpoints
# snapshot concurrently. Race the whole tracing layer.
go test -race ./internal/optrace/...
# The gateway tier is concurrency-dense by construction: per-connection
# reader/writer goroutines, a shared dispatcher, pooled op records whose
# completion races a watchdog timer, and clients whose pipelined Do
# calls coalesce onto one writer. Race it.
go test -race ./internal/gateway/...
# Routing by the lease hint is a race between the holder's event loop
# (publishing its mask, self-keeping its writes) and the dispatcher
# reading the hint for concurrent clients' reads and writes: repeat it.
go test -race -count=5 -run TestGatewayLeasedWritesFollowHolder ./internal/gateway/
# The WAL's committer goroutine flushes for many concurrent appenders and
# releases their acks while checkpoints dump the store underneath, and
# the replica's disk backend appends from multiple fast-path reader
# goroutines under shard locks: race the whole durability layer.
go test -race ./internal/wal/...
# The tuner's profiler window is written from transport reader goroutines
# (every finished op observes into it) while metrics endpoints and the
# tune loop snapshot it: race the auto-tuning layer.
go test -race ./internal/tuner/...
# The lease holder's shard mask is published through an atomic that
# gateway sessions read off-loop when routing reads, and the lease
# counters are sampled by metrics endpoints while the event loop
# mutates holder state: race the read-lease layer.
go test -race ./internal/lease/...
# hqbench (benchmark/, its own module) compiles against internal/wal,
# internal/rkv, internal/transport and friends: a product API change that
# breaks it must fail here, not in the benchmark run.
(cd benchmark && go vet ./... && go test ./...)
