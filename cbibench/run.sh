#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#
#   bash cbibench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory. The build needs the repository's own module next
# to cbibench/, so outside a checkout it fails before running anything.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd cbibench && go build -o "$out/cbibench" .) >&2
exec "$out/cbibench" --workdir "$out/work" "$@"
