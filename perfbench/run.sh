#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash perfbench/run.sh --workload kv-roundtrip --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in that root, and run outputs (WAL directories, span
# dumps) under .bench_out/, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (robustconf sources not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
