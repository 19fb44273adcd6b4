#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository
# root:
#
#   bash perfbench/run.sh --workload short --seed 1 --seconds 20 --trace 0
#
# Everything the toolchain writes (build cache, binary, traces and
# profiles) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

# Keep the toolchain's usage counters off (they would be written under
# HOME, and are of no use here).
go telemetry off >&2
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .) >&2
exec "$build/perfbench.bin" --out "$build/perfbench" "$@"
