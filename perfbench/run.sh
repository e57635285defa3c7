#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload powerlaw --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ under the
# current directory. The build fails, and the script exits non-zero
# without running anything, when the simulator sources are not beside
# perfbench/.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
