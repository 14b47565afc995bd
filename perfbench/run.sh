#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload journal-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# journals, span and flight-recorder dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-run" "$@"
