#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it with the driver's arguments. Everything the build
# writes (binary, Go build cache) stays under .bench_build/ so the run reads
# and writes only inside the checkout; the first build in a fresh checkout
# compiles the standard library too (about 15 s on two cores).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/entk-bench" ./bench
exec "$build/entk-bench" "$@"
