#!/usr/bin/env bash
# Builds the SafetyPin benchmark from this checkout's sources and runs it.
# Run from the root of the checkout; arguments go to the benchmark:
#
#   bash spbench/run.sh --workload recover-solo --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" HOME="$out/home"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/spbench" && go build -o "$out/spbench" .) >&2
exec "$out/spbench" --out "$out" "$@"
