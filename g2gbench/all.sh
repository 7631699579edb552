#!/usr/bin/env bash
# Runs every workload the benchmark knows, end to end (--trace 0) and traced
# (--trace 1), at the default seed. Run from the root of a checkout:
#
#   bash g2gbench/all.sh [seconds]
#
# seconds defaults to BENCHMARK.json's run_seconds.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
secs=${1:-50}
for w in $(bash "$here/run.sh" -list); do
	for t in 0 1; do
		echo "== $w --trace $t"
		bash "$here/run.sh" --workload "$w" --seed 1 --seconds "$secs" --trace "$t"
	done
done
