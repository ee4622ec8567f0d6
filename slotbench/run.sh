#!/usr/bin/env bash
# Builds the slot benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash slotbench/run.sh --workload market-240 --seed 1 --seconds 30 --trace 0
#   bash slotbench/run.sh compare --bounds BENCHMARK.json before.jsonl after.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, and each run's state
# directory (WAL, journal), which the benchmark removes when it ends.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" GOTOOLCHAIN=local
go -C "$root/slotbench" build -o "$out/slotbench" .
exec "$out/slotbench" "$@"
