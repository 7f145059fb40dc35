#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload sim-paper --seed 42 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache,
# telemetry counters) stays in the scratch directory: $CARGO_TARGET_DIR
# when set, else .bench_build.
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in /*) ;; *) work=$root/$work ;; esac
mkdir -p "$work/tmp"

export GOCACHE=$work/gocache GOTMPDIR=$work/tmp GOPATH=$work/gopath GOMODCACHE=$work/gopath/pkg/mod
export XDG_CONFIG_HOME=$work/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd bench && go build -o "$work/bench" .)
exec "$work/bench" --root "$root" --work "$work" "$@"
