#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload roc-detect --seed 1 --seconds 20 --trace 0
#
# Every file the build or the run writes stays under .bench_build/ (Go
# build cache, binary, span dumps, the daemon workload's temporary
# store). The build is the only child process; the benchmark binary then
# replaces this shell, so no process is left behind.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
