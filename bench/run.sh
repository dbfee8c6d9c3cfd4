#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Everything
# the toolchain writes (build cache, temporary files, the binary) stays
# under the checkout's .bench_build directory.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/bench" .
exec "$build/bench" "$@"
