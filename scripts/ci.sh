#!/usr/bin/env sh
# CI entry point — equivalent to `make ci` for environments without
# make. Keeps the race detector on the full suite so the parallel
# per-zone engine in internal/core is re-proven on every PR.
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

# Fuzz briefly beyond the committed seed corpora (testdata/fuzz): the
# operator's checkpoint restore must turn corrupt payloads into errors,
# never panics; POST /v1/config must answer hostile bodies with 200 or
# a typed 4xx, and an accepted config must round-trip GET -> POST -> GET;
# mmogaudit must answer a hostile event stream with a load error or a
# report, never a panic or a hang; a hostile blackout spec and fault
# config must be rejected or give a plan whose every window lies
# inside the run; a corrupt core checkpoint payload must be refused or
# resume to a well-formed Result; a corrupt neural predictor snapshot
# must be refused or keep predicting and snapshot back to the same
# bytes. An accepted core payload replays the rest of its run, so
# FuzzCoreResume caps minimization at 1s: shrinking a 6 KB payload byte
# by byte would otherwise take the whole pass.
go test -run '^$' -fuzz '^FuzzOperatorFromSnapshot$' -fuzztime 10s ./internal/operator/
go test -run '^$' -fuzz '^FuzzConfigPost$' -fuzztime 10s ./internal/daemon/
go test -run '^$' -fuzz '^FuzzAnalyzeEvents$' -fuzztime 10s ./internal/audit/
go test -run '^$' -fuzz '^FuzzFaultPlan$' -fuzztime 10s ./internal/faults/
go test -run '^$' -fuzz '^FuzzCoreResume$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
go test -run '^$' -fuzz '^FuzzNeuralRestore$' -fuzztime 10s ./internal/predict/

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

# Crash-recovery smoke under the race detector: run to a deterministic
# "crash" (-stop-after-tick) with checkpointing on, resume over the
# checkpoint directory, and require the resumed stdout to be
# byte-identical to an uninterrupted run's — metrics continuity across
# the kill, end to end.
d=$(mktemp -d)
go run -race ./cmd/mmogsim -days 1 -predictor movingavg -fault-dropout 0.02 \
	> "$d/ref.out"
go run -race ./cmd/mmogsim -days 1 -predictor movingavg -fault-dropout 0.02 \
	-checkpoint-dir "$d/ckpt" -checkpoint-every 100 -stop-after-tick 400 \
	> "$d/stop.out" 2> "$d/stop.err"
test ! -s "$d/stop.out"
go run -race ./cmd/mmogsim -days 1 -predictor movingavg -fault-dropout 0.02 \
	-checkpoint-dir "$d/ckpt" -checkpoint-every 100 \
	> "$d/resume.out" 2> "$d/resume.err"
grep -q 'resumed from checkpoint at tick 400' "$d/resume.err"
cmp "$d/ref.out" "$d/resume.out"
rm -rf "$d"

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
