#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# service workload's disk stores and the span files of traced runs all
# stay under .bench_build/ there. Without the rest of the repository the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
