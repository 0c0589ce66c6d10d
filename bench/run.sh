#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root, for example:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay inside the checkout,
# under .bench_build/. The build needs the repository's own module one
# directory up, so a copy of bench/ on its own fails here, before any run.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The toolchain keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
