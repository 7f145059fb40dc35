# Repository CI targets. `make ci` is what a PR must keep green. It
# runs scripts/ci.sh, the one definition of the pipeline: the gofmt
# check, vet, build, the full test suite under the race detector
# (guarding the parallel per-zone simulation engine in internal/core
# and the sweep pool in internal/par) and again in shuffled order, a
# short fuzz pass (scripts/fuzz.sh), the bench/ module's build and
# self-tests, the gated benchmark snapshot (bench-json), which both
# keeps the BenchmarkCoreRun* variants runnable and fails the build
# when allocs/op or B/op regress >20% — or ns/op >2x, a wide tripwire
# because wall-clock on a loaded box is noise — against the committed
# BENCH_core.json (see scripts/benchgate), and the smoke scripts. The
# other targets run one step each.

GO ?= go

.PHONY: ci fmt vet build test race fuzz bench-module bench-smoke bench bench-json chaos-smoke recovery-smoke obs-smoke daemon-smoke slo-smoke

ci:
	sh scripts/ci.sh

# Every Go file in the tree, bench/ included, must be gofmt-clean; the
# offending files are listed on failure.
fmt:
	test -z "$$(gofmt -l . | tee /dev/stderr)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz passes beyond the committed seed corpora; the list and
# what each target must hold are in the script.
fuzz:
	sh scripts/fuzz.sh

# The benchmark (bench/) is a separate module importing core, operator,
# daemon, and obs: keep it compiling and its self-tests green.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# One iteration of the core-engine benchmarks: catches bit-rot in the
# bench harness without paying for a full measurement run. The
# checkpoint benchmark rides along so the operator snapshot path stays
# runnable too.
bench-smoke:
	$(GO) test -run '^$$' -bench CoreRun -benchtime 1x .
	$(GO) test -run '^$$' -bench Checkpoint -benchtime 1x ./internal/operator/
	$(GO) test -run '^$$' -bench ObsOverhead -benchtime 1x .

# Fault-injection smoke: stochastic injector plus a correlated region
# blackout under the race detector, gated by mmogaudit — every breach
# episode must carry a root cause and all consistency checks must pass.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Crash-recovery smoke: a run killed at a checkpoint and resumed must
# print what an uninterrupted run prints.
recovery-smoke:
	sh scripts/recovery_smoke.sh

# Observability smoke: serve /metrics + /debug/pprof from a live run,
# scrape and assert the key series, and byte-diff the obs-on stdout
# against an obs-off run's (the write-only telemetry contract).
obs-smoke:
	sh scripts/obs_smoke.sh

# Daemon smoke: the full mmogd lifecycle — load, SIGTERM drain,
# checkpoint restart with lease reconciliation (clean and after
# kill -9), hot reload (HTTP + SIGHUP), 10x overload shedding with
# 429s, the blown-drain hard exit, and the mmogaudit load report.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# SLO + tracing smoke: a forced breach under an armed burn-rate alert
# with end-to-end traceparent propagation; mmogaudit merges the client
# and server traces, scores the alert against ground truth (perfect
# precision/recall, lag <= 2 ticks), and a rules-off control run must
# answer byte-identically (write-only telemetry).
slo-smoke:
	sh scripts/slo_smoke.sh

# Full benchmark suite (minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Machine-readable benchmark snapshot, gated against the committed
# BENCH_core.json: refreshes the snapshot and fails on a >20%
# allocs/op or B/op (or >2x ns/op) regression (scripts/benchjson +
# scripts/benchgate). To accept an intentional change, commit the
# refreshed BENCH_core.json.
bench-json:
	sh scripts/bench_json.sh
