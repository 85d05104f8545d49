#!/usr/bin/env bash
# benchmark/repeat.sh N [SECONDS]
#
# Runs N full sets (every workload untraced and traced), alternating the
# workload order from set to set and giving every run another seed, then
# prints each metric's median, quartiles and spread, fails if an
# end-to-end metric's spread exceeds its bound in BENCHMARK.json, and
# writes the measured spreads next to the bounds in benchmark/SPREADS.json.
set -euo pipefail
n=${1:?usage: benchmark/repeat.sh N [SECONDS]}
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
forward=(lan-mixed disk-write gw-lease-read wan3-mixed)
backward=(wan3-mixed gw-lease-read disk-write lan-mixed)
for ((k = 1; k <= n; k++)); do
	if ((k % 2)); then order=("${forward[@]}"); else order=("${backward[@]}"); fi
	for w in "${order[@]}"; do
		for t in 0 1; do
			echo "set $k: $w --trace $t" >&2
			"$here/run.sh" --workload "$w" --seed $((1000 * k + 7)) --seconds "$seconds" --trace "$t" |
				tail -n 1 >"$out/set$k-$w-t$t.json"
		done
	done
done
exec "$here/run.sh" --spread "$out"
