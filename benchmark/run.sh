#!/usr/bin/env bash
# Builds hqbench from source and runs it. Everything the build and the
# run write stays inside the checkout, under .bench_build/ and
# benchmark/out/.
#
#   benchmark/run.sh                      all four workloads, untraced and traced, with the probes
#   benchmark/run.sh lan-mixed --seed 7   one workload, untraced then traced
#   benchmark/run.sh --workload lan-mixed --seed 7 --seconds 20 --trace 0
#                                         one run; the last line of output is its JSON result
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/hqbench" ./cmd/hqbench)
cd "$root"
if [[ $# -gt 0 && $1 != -* ]]; then
	workload=$1
	shift
	"$build/hqbench" --workload "$workload" --trace 0 "$@"
	exec "$build/hqbench" --workload "$workload" --trace 1 "$@"
fi
exec "$build/hqbench" "$@"
