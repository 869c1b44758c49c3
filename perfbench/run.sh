#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and traced-run artifacts stay under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
