#!/usr/bin/env sh
# The CI pipeline, the one definition of it: `make ci` runs this
# script, and so can an environment without make. Keeps the race
# detector on the full suite so the parallel per-zone engine in
# internal/core is re-proven on every PR.
set -eu
cd "$(dirname "$0")/.."

# Every Go file in the tree, bench/ included, must be gofmt-clean; the
# offending files are listed on failure.
test -z "$(gofmt -l . | tee /dev/stderr)"

go vet ./...
go build ./...
go test -race ./...

# Re-run the suite with a shuffled test order (fixed seed so a failure
# reproduces): tests must not depend on the order they are declared in.
go test -shuffle 1 ./...

# Fuzz briefly beyond the committed seed corpora; the list and what
# each target must hold are in the script.
sh scripts/fuzz.sh

# The benchmark is a separate module that imports core, operator,
# daemon, and obs: keep it compiling and its self-tests green.
(cd bench && go vet . && go test .)

# Gated benchmark snapshot: runs the CoreRun/Checkpoint/ObsOverhead
# benchmarks (so they always stay runnable), refreshes BENCH_core.json,
# and fails on a >20% allocs/op or B/op (or >2x ns/op) regression
# against the committed snapshot (scripts/benchgate). Accept an
# intentional change by committing the refreshed BENCH_core.json.
sh scripts/bench_json.sh

# Fault-injection smoke: the stochastic injector plus a correlated
# region blackout under the race detector, gated by mmogaudit — every
# SLA-breach episode must carry a root cause and all consistency
# checks must pass.
sh scripts/chaos_smoke.sh

# Crash-recovery smoke: a run killed at a checkpoint and resumed must
# print what an uninterrupted run prints.
sh scripts/recovery_smoke.sh

# Observability smoke: scrape /metrics and /debug/pprof from a live
# run, byte-diff obs-on stdout against obs-off (write-only telemetry
# contract), and run the run's artifacts through mmogaudit.
sh scripts/obs_smoke.sh

# Daemon smoke: the full mmogd lifecycle — load, SIGTERM drain,
# checkpoint restart with lease reconciliation (clean and after
# kill -9), hot reload (HTTP + SIGHUP), 10x overload shedding with
# 429s, the blown-drain hard exit, and the mmogaudit load report.
sh scripts/daemon_smoke.sh

# SLO + tracing smoke: a forced breach under an armed burn-rate alert
# with end-to-end traceparent propagation; mmogaudit merges the client
# and server traces, scores the alert against ground truth (perfect
# precision/recall, detection lag <= 2 ticks), and a rules-off control
# run must answer byte-identically (write-only telemetry).
sh scripts/slo_smoke.sh
