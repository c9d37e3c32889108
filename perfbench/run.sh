#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload miss-heavy --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, and the workloads'
# scratch directories.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$build/perfbench" .) 1>&2
exec "$build/perfbench" -root "$root" "$@"
