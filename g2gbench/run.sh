#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload. Run from the root of the checkout:
#
#   bash g2gbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and every scratch file (the large-stream
# .g2gt trace, the span dumps) live under .bench_build/ at the root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off

(cd "$here" && go build -buildvcs=false -o "$out/g2gbench" .) >&2
exec "$out/g2gbench" "$@"
