#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, passing the benchmark's flags:
#
#   bash perfbench/run.sh --workload steady-base --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
