#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files stay under
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
