#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run
# from the repository root:
#
#   bash benchmark/run.sh --workload sim-ycsb --seed 42 --seconds 26 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# own configuration) is kept under benchmark/out/.build/ — git-ignored, and
# skipped by the go tool's ./... for its leading dot — so a run reads and
# writes nothing outside the checkout, and nothing outside benchmark/. The
# build needs no network: the benchmark module's one dependency is the
# repository itself (see go.mod).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "benchmark: run from the root of a full checkout (go.mod, benchmark/go.mod and BENCHMARK.json must be here)" >&2
	exit 2
fi

build="$root/benchmark/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$root/benchmark" -o "$build/abyss-benchmark" .
exec "$build/abyss-benchmark" "$@"
