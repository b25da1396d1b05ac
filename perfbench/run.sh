#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 5
#
# Everything the toolchain writes (build cache, telemetry, the binary) stays
# under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
