#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Usage (from the repository root):
#   bash perfbench/run.sh --routed-rate-qps 100 --workload clip_detect --seed 1 --seconds 30 --trace 0
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export XDG_CONFIG_HOME="$work/config" TMPDIR="$work/tmp" GOTMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" -work "$work" "$@"
