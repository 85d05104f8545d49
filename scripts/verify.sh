#!/bin/sh
# verify.sh — the tier-1 gate (see ROADMAP.md): build everything, vet
# everything, run the full test suite, and run the analysis package —
# whose enumerator's workers share a work-stealing counter — and the
# concurrent layers under the race detector.
set -eux
cd "$(dirname "$0")/.."
go build ./...
# Linux holds injected link delays on a timerfd (sleeper_linux.go) and
# syncs WAL rounds with fdatasync (datasync_linux.go); every other
# platform gets the time.Timer sleeper and a plain fsync, which nothing
# here would otherwise compile. Standard library only, so this builds
# offline.
GOOS=darwin GOARCH=arm64 go build ./internal/transport/ ./internal/wal/
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
# Exact availability has one engine: the decision diagram, of a
# quorum.Gate or of Paths' and Y's graphs. The bit-sliced circuits, the
# tuner's own availability formulas, the word fast paths, the
# transversal-count memo cache and its keys, the enumerator's progress
# hook and the bit-sliced sampler must not grow back.
if grep -rnE '(func (\([^)]*\) )?|type )(AvailabilityCircuit|CircuitAvailability|CircuitBuilder|binomTail|hmajAvail)\b' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then exit 1; fi
if grep -rnE 'func \([^)]*\) CacheKey\(' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then exit 1; fi
if grep -rnE '(func (\([^)]*\) )?|type )(WordAvailability|CachedTransversalCounts|SetProgress|bernoulliWord)\b' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then exit 1; fi
# The diagram lives with the gate: quorum stands below analysis.
if go list -deps ./internal/quorum | grep -x 'hquorum/internal/analysis'; then exit 1; fi
# The tuner counts availability on the pickers' gates, not on per-flavor
# predicates of its own.
if go list -f '{{join .Imports "\n"}}' ./internal/tuner | grep -x -e 'hquorum/internal/hgrid' -e 'hquorum/internal/htgrid' -e 'hquorum/internal/htriang'; then exit 1; fi
# One formula per grid family: hgrid.Flat is the flat grid, and every
# boolean question about an h-grid, h-T-grid or h-triang live set is
# answered by the construction's quorum.Gate. The retired flat-grid package
# and the hand-written availability predicates must not grow back.
if [ -e internal/grid ] || grep -rn '"hquorum/internal/grid"' --include='*.go' --exclude-dir=.bench_build .; then exit 1; fi
if grep -rnE 'func (\([^)]*\) )?(HasRowCover|HasFullLine|BestFullLine|HasPartialRowCover|feasibleAt(Most|Least))' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then exit 1; fi
# Every construction counts through a decision diagram, so none keeps a
# single-word availability path.
if grep -rnE 'func \([^)]*\) AvailableWord\(' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then exit 1; fi
# Every uniform random pick walks its construction's quorum.Gate
# (Gate.Pick): the hand-written pick walks over hierarchy objects, majority
# trees, triangles and thresholds must not grow back.
if grep -rnE 'func (\([^)]*\) )?(PickRowCover|PickFullLine|PickPartialRowCover[A-Za-z]*|pickThreshold|pickHMaj|hmajPick)\(' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then exit 1; fi
if grep -rn 'func pick(' --include='*.go' --exclude='*_test.go' internal/hqs internal/htriang; then exit 1; fi
# So do the baselines' (majority, CWlog, the k-majority, M-Grid): no
# shuffle-and-prune, feasible-row scan or shuffled threshold draw grows back
# there, nor the weighted-voting constructor that made the vote gate repeat
# leaves. The partition k-coterie and the Byzantine clustering are
# quorum.Composite: no slice, live-cluster or available-slice walk of their
# own.
if grep -rnE 'func (\([^)]*\) )?(NewWeighted|sizeBounds|rowState|assemble|liveClusters|availableSlices|slice)\(' --include='*.go' --exclude='*_test.go' internal/majority internal/cwlog internal/kcoterie internal/bqs; then exit 1; fi
if grep -rn 'Shuffle(' --include='*.go' --exclude='*_test.go' internal/majority internal/cwlog internal/kcoterie; then exit 1; fi
# The transversal-count cache is gone, and with it its disk layer and the
# paper-tables flag that turned that on: neither may grow back. (The
# brackets keep this line from matching itself.)
if grep -rnE 'SetDiskCache[D]ir|cache[-]dir' --include='*.go' --include='*.sh' --exclude-dir=.bench_build .; then exit 1; fi
# hqbench (benchmark/run.sh) is the one end-to-end instrument: the retired
# load generator and its live ledger must not grow back, nor be pointed at
# by code, scripts or the docs that say how to measure. (The bracket keeps
# this line from matching itself.)
if grep -rniE 'load[g]en|BENCH_[l]ive' --include='*.go' --include='*.sh' --exclude-dir=benchmark --exclude-dir=.bench_build .; then exit 1; fi
if grep -rniE 'load[g]en|BENCH_[l]ive' README.md DESIGN.md .claude/skills; then exit 1; fi
# An rkv attempt's deadline reaches the timer wheel only through the
# node's one deadline sweep (armAttempt): the per-attempt timer token and
# timers armed straight from an attempt's backoff must not grow back.
if grep -rnE 'tokenOpDue|After\(.*\.tries\.' --include='*.go' internal/rkv; then exit 1; fi
# WAL rounds write in place into pre-zeroed segments and fdatasync them:
# an O_APPEND segment or an fsync of the active segment would bring the
# per-round journal commit back.
if grep -nE 'O_APPEND|seg\.Sync\(\)' internal/wal/wal.go; then exit 1; fi
# The replica store is one flat table per shard under a per-store seeded
# hash (shards.go): a Go map of entries or the unseeded FNV-1a hash, which
# lets a client that picks keys aim them at one shard, must not grow back.
if grep -rn 'map\[string\]entry' --include='*.go' --exclude='*_test.go' internal/rkv; then exit 1; fi
if grep -niE 'fnv|14695981039346656037' internal/rkv/shards.go; then exit 1; fi
# A keyed batch message carries one []item (key, version, value), decoded
# in place from one string per frame: the parallel Vers/Vals slices, and
# the length-mismatch guards they needed, must not grow back.
if grep -rnE '^\s*(p2)?(Vers|Vals)\s+\[\]' --include='*.go' --exclude='*_test.go' internal/rkv; then exit 1; fi
# A reconfiguration and a lease grant move state through one quorum
# bracket (internal/rkv/transfer.go): the snapshot/push and pull/push
# paths it replaced, and the lease holder's pull/push sub-machine, must
# not grow back.
if grep -rnwE 'msgSnapReq|rcMergeSnap|leaseMerged|BeginPull|OnPullReply|BeginPush|OnPushAck|holdPull|holdPush|rcSnap|rcPush' --include='*.go' internal/rkv internal/lease; then exit 1; fi
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
# The h-family constructions compile their gates lazily, once, and the
# enumerator's workers and concurrent pickers read them: race the first use.
go test -race ./internal/hgrid/... ./internal/htgrid/... ./internal/htriang/...
# So do the baselines': their Available, their decision diagram and HQS's
# pickers all read the gate built on first use.
go test -race ./internal/majority/... ./internal/hqs/... ./internal/cwlog/... ./internal/kcoterie/...
go test -race ./internal/epoch/... ./internal/quorum/... ./internal/dmutex/... ./internal/rkv/... ./internal/transport/... ./internal/nemesis/... ./internal/history/...
# One-round reads report sub-operations from the phase-1 reply handler
# while their round is still in flight, and the kind-pure fill compacts the
# submit queue in place: repeat their simulator tests under the detector.
go test -race -count=5 -run 'OneRound|KindPure|RestartedAfterEarly' ./internal/rkv/
# The deadline sweep retries every due attempt from one timer, and a
# self-send flood must neither wedge the event loop nor lose count of
# what it dropped: repeat both under the detector.
go test -race -count=5 -run 'TestDeadlineTimersPerNodeNotPerPhase|TestSilentMemberRetriedAtDeadline' ./internal/rkv/
go test -race -count=5 -run TestSelfSendFloodDoesNotWedge ./internal/transport/
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
# goroutines under shard locks, while a spare builder zero-fills the next
# segment beside the commit loop and Abandon waits for both: race the
# whole durability layer, three times.
go test -race -count=3 ./internal/wal/...
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
