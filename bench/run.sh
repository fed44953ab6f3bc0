#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source into the
# checkout's build directory and runs it with the arguments given, e.g.
#   bash bench/run.sh --workload steady4 --seed 1 --seconds 20 --trace 0
# Everything it writes (Go build cache, binary, the nodes' data
# directories) stays under .bench_build at the root of the checkout,
# whatever the caller's environment says.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
rm -rf "$build/data" # what a killed run left behind
mkdir -p "$build/tmp" "$build/data"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" -datadir "$build/data" "$@"
