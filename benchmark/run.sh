#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload sim-rack --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache) stays under .bench_build/ in the current directory, and no
# network access is attempted.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/benchmark" .) 1>&2
exec "$out/benchmark" "$@"
