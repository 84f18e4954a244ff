#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): builds the benchmark
# from source with every toolchain write (build cache, temporary files, the
# binary) kept inside the checkout under .bench_build, then runs it with
# the arguments given. `go run ./benchmark` does the same for a person,
# with the toolchain's caches where the person keeps them.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
