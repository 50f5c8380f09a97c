#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. The binary and the Go build cache live in .bench_build/
# at the root of the checkout, so nothing outside the checkout is written
# and the second run onwards only re-links what changed.
#
#   bash benchmark/run.sh --workload serve_jobs --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/feves-benchmark" ./benchmark
exec "$build/feves-benchmark" "$@"
