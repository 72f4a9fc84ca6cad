#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the harness from the checkout it is
# run in, with every build output inside that checkout, and runs it.
#   bash bench/run.sh --workload resp-read-small --seed 1 --seconds 22 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/evilbloom" ./cmd/evilbloom
go build -o "$build/bench" ./bench
exec "$build/bench" -server-bin "$build/evilbloom" -out "$build/run" "$@"
