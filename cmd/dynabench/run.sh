#!/usr/bin/env bash
# Builds dynabench from source and runs it with the given flags, e.g.
#
#   bash cmd/dynabench/run.sh --workload fleet --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, CPU profiles) stays under .bench_build/ there.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$out/dynabench" .
exec "$out/dynabench" -out "$out/dynabench-profiles" "$@"
