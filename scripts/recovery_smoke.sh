#!/usr/bin/env sh
# Crash-recovery smoke under the race detector: run to a deterministic
# "crash" (-stop-after-tick) with checkpointing on, resume over the
# checkpoint directory, and require the resumed stdout to be
# byte-identical to an uninterrupted run's — metrics continuity across
# the kill, end to end.
set -eu
cd "$(dirname "$0")/.."

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
