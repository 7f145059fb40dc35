# Repository CI targets. `make ci` is what a PR must keep green: the
# gofmt check, vet, build, the full test suite under the race detector
# (guarding the parallel per-zone simulation engine in internal/core
# and the sweep pool in internal/par), a short fuzz pass, the bench/
# module's build and self-tests, and the gated benchmark snapshot (bench-json),
# which both keeps the BenchmarkCoreRun* variants runnable and fails
# the build when allocs/op or B/op regress >20% — or ns/op >2x, a
# wide tripwire because wall-clock on a loaded box is noise — against
# the committed BENCH_core.json (see scripts/benchgate).

GO ?= go

.PHONY: ci fmt vet build test race fuzz bench-module bench-smoke bench bench-json chaos-smoke recovery-smoke obs-smoke daemon-smoke slo-smoke

ci: fmt vet build race fuzz bench-module bench-json chaos-smoke recovery-smoke obs-smoke daemon-smoke slo-smoke

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

# Short fuzz passes beyond the committed seed corpora (testdata/fuzz):
# corrupt operator checkpoints must be errors, never panics; hostile
# POST /v1/config bodies must get 200 or a typed 4xx, and an accepted
# config must round-trip GET -> POST -> GET; a hostile flight-recorder
# stream must give mmogaudit a load error or a report, never a panic
# or a hang; a hostile blackout spec and fault config must be rejected
# or give a plan whose every window lies inside the run; a corrupt core
# checkpoint payload must be refused or resume to a well-formed Result;
# a corrupt neural predictor snapshot must be refused or keep predicting
# and snapshot back to the same bytes.
# An accepted payload replays the rest of its run, so FuzzCoreResume caps
# minimization at 1s: shrinking a 6 KB payload byte by byte would
# otherwise take the whole pass.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzOperatorFromSnapshot$$' -fuzztime 10s ./internal/operator/
	$(GO) test -run '^$$' -fuzz '^FuzzConfigPost$$' -fuzztime 10s ./internal/daemon/
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeEvents$$' -fuzztime 10s ./internal/audit/
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzCoreResume$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzNeuralRestore$$' -fuzztime 10s ./internal/predict/

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

# Crash-recovery smoke under the race detector: run to a deterministic
# "crash" (-stop-after-tick) with checkpointing on, resume over the
# checkpoint directory, and require the resumed stdout to be
# byte-identical to an uninterrupted run's — metrics continuity across
# the kill, end to end.
recovery-smoke:
	d=$$(mktemp -d) && \
	$(GO) run -race ./cmd/mmogsim -days 1 -predictor movingavg -fault-dropout 0.02 \
		> $$d/ref.out && \
	$(GO) run -race ./cmd/mmogsim -days 1 -predictor movingavg -fault-dropout 0.02 \
		-checkpoint-dir $$d/ckpt -checkpoint-every 100 -stop-after-tick 400 \
		> $$d/stop.out 2> $$d/stop.err && \
	test ! -s $$d/stop.out && \
	$(GO) run -race ./cmd/mmogsim -days 1 -predictor movingavg -fault-dropout 0.02 \
		-checkpoint-dir $$d/ckpt -checkpoint-every 100 \
		> $$d/resume.out 2> $$d/resume.err && \
	grep -q 'resumed from checkpoint at tick 400' $$d/resume.err && \
	cmp $$d/ref.out $$d/resume.out && \
	rm -rf $$d

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
