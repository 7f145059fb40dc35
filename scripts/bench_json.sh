#!/usr/bin/env sh
# Machine-readable benchmark snapshot, gated: run the core-engine,
# neural pretraining, checkpoint, and observability-overhead
# benchmarks beside the reference kernel (a workload that calls no
# mmogdc code), the (6,3,1) network's forward pass and training step,
# the matcher walk
# at 10, 130 and 1000 centers, the provisioning step's steady-state
# Prune + AllocAt, its tick with a lease ending (both rescan) and its
# Acquire with decision provenance on, one Observe + Predict step of
# each predictor in
# bench_test.go, and one mmogd sample through the observe handler and
# its worker, all with -benchmem; condense the output into
# BENCH_core.json (name -> ns/op, B/op, allocs/op) at the repo root,
# and fail if the fresh numbers regress more than the tolerance band
# against the committed snapshot (see scripts/benchgate: allocs/op and
# B/op gate at 20%; ns/op, as a ratio to the reference kernel's in the
# same snapshot so that the host's speed cancels, is a 2x
# load-noise-tolerant tripwire and only applies to benchmarks long
# enough that an iteration is meaningful).
# Three iterations per engine benchmark keep this cheap enough for CI
# while damping single-iteration timing wobble; the numbers are a
# smoke-grade snapshot, not a measurement run.
#
# The refreshed BENCH_core.json is written even when the gate fails, so
# an intentional change is accepted by committing the new snapshot.
set -eu
cd "$(dirname "$0")/.."

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

go test -run '^$' -bench 'CoreRun|ObsOverhead|^BenchmarkPretrainShared$|^BenchmarkReferenceKernel$' -benchtime 3x -benchmem . \
    > "$d/bench.out"
go test -run '^$' -bench Checkpoint -benchtime 3x -benchmem \
    ./internal/operator/ >> "$d/bench.out"
# The layer benchmarks take microseconds an iteration: run enough of
# them that ns/op means something.
go test -run '^$' -bench MatcherAllocate -benchtime 2000x -benchmem . \
    >> "$d/bench.out"
go test -run '^$' -bench 'StepSteadyState|StepRescan|StepProvenance' -benchtime 100000x -benchmem \
    ./internal/provision/ >> "$d/bench.out"
go test -run '^$' -bench '^BenchmarkPredict' -benchtime 200000x -benchmem . \
    >> "$d/bench.out"
go test -run '^$' -bench '^Benchmark(Forward|Train)631$' -benchtime 200000x -benchmem \
    ./internal/neural/ >> "$d/bench.out"
go test -run '^$' -bench '^BenchmarkDaemonObserve$' -benchtime 20000x -benchmem \
    ./internal/daemon/ >> "$d/bench.out"

go run ./scripts/benchjson < "$d/bench.out" > "$d/new.json"

status=0
if [ -f BENCH_core.json ]; then
    go run ./scripts/benchgate BENCH_core.json "$d/new.json" || status=$?
fi
cp "$d/new.json" BENCH_core.json
echo "bench-json: wrote BENCH_core.json ($(grep -c '"ns_per_op"' BENCH_core.json) benchmarks)"
exit "$status"
