#!/usr/bin/env bash
# Builds the visabench benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash visabench/run.sh --workload sweep-open --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, and the run records.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export PPROF_TMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOENV=off

(cd "$root/visabench" && go build -o "$build/visabench" .)
exec "$build/visabench" "$@"
