#!/bin/sh
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Run from the repository root: sh bench/run.sh [flags].
# The Go build cache goes under .bench_build so nothing is written outside
# the checkout; GOTOOLCHAIN=local and GOFLAGS=-mod=mod keep the build off
# the network (the module has no dependency outside this repository).
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
(cd "$root/bench" && GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod go build -o "$build/pirbench" .)
cd "$root"
exec "$build/pirbench" "$@"
