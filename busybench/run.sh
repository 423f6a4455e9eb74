#!/usr/bin/env bash
# Builds the busybench command from source and runs it with the given
# arguments, from the repository root:
#
#   bash busybench/run.sh --workload solve-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary and the span
# dumps of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"

(cd "$root/busybench" && go build -o "$build/busybench" .)
exec "$build/busybench" "$@"
