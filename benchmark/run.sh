#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness (its own Go
# module in this directory) and runs it from the checkout root with the
# arguments given. Every build product, the Go build cache included,
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C benchmark -o "$root/.bench_build/bin/benchmark" .
exec "$root/.bench_build/bin/benchmark" "$@"
