#!/usr/bin/env sh
# Observability smoke: run mmogsim with the telemetry server on an
# ephemeral port, scrape /metrics and /debug/pprof while it lingers,
# assert the key series exist, prove the write-only contract by
# byte-diffing the obs-on stdout against an obs-off run's, and feed the
# run's artifacts (events JSONL, metrics JSON, Chrome trace) through
# mmogaudit end to end.
set -eu
cd "$(dirname "$0")/.."

d=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$d"
}
trap cleanup EXIT

go build -o "$d/mmogsim" ./cmd/mmogsim
go build -o "$d/mmogaudit" ./cmd/mmogaudit
go build -o "$d/scrape" ./scripts/scrape

# fetch <url>: curl when the host has it, else the bundled scraper —
# the smoke must not require anything beyond the go toolchain.
if command -v curl > /dev/null 2>&1; then
    fetch() { curl -sf "$1"; }
else
    fetch() { "$d/scrape" "$1"; }
fi

args="-days 1 -predictor lastvalue -mtbf 150 -mttr 25 -fault-seed 7 \
    -fault-reject 0.05 -fault-dropout 0.02 -fault-degraded 0.5"

# Reference run, observability off.
"$d/mmogsim" $args > "$d/off.out"

# Obs-on run: ephemeral port, JSONL event sink, JSON metrics dump,
# Chrome trace, and a linger window holding the server up after the run
# for the scrapes.
"$d/mmogsim" $args -obs-addr 127.0.0.1:0 -obs-linger 120s \
    -obs-events "$d/events.jsonl" -metrics-out "$d/metrics.json" \
    -trace-out "$d/run.trace" \
    > "$d/on.out" 2> "$d/obs.err" &
pid=$!

# The "lingering" stderr line is printed after every artifact (metrics
# dump, trace) is fully written, before the linger sleep — once it
# appears the run is done and the server is still up.
i=0
while ! grep -q '^obs: lingering' "$d/obs.err" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "obs-smoke: run never finished" >&2
        cat "$d/obs.err" >&2
        exit 1
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "obs-smoke: run died early" >&2
        cat "$d/obs.err" >&2
        exit 1
    fi
    sleep 0.2
done

addr=$(sed -n 's/^obs: serving http on //p' "$d/obs.err" | head -n 1)
if [ -z "$addr" ]; then
    echo "obs-smoke: no 'obs: serving http on' line on stderr" >&2
    cat "$d/obs.err" >&2
    exit 1
fi

fetch "http://$addr/metrics" > "$d/metrics.txt"
grep -q '^mmogdc_tick_duration_seconds_bucket' "$d/metrics.txt"
grep -q '^mmogdc_tick_phase_duration_seconds_bucket{phase="observe"' "$d/metrics.txt"
grep -q '^mmogdc_failovers_total' "$d/metrics.txt"
grep -q '^mmogdc_center_availability{center=' "$d/metrics.txt"
grep -q '^mmogdc_recorder_dropped_events' "$d/metrics.txt"
fetch "http://$addr/debug/pprof/goroutine?debug=1" | grep -q 'goroutine'
grep -Eq '^mmogdc_grants_total [1-9]' "$d/metrics.txt"
fetch "http://$addr/events" | grep -q '"events"'
# Filtered view: only grant events, and the match count reported.
fetch "http://$addr/events?kind=grant" > "$d/grants.json"
grep -q '"matched"' "$d/grants.json"
grep -q '"kind": "grant"' "$d/grants.json"

kill "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# Write-only contract: stdout must be byte-identical with obs enabled.
cmp "$d/off.out" "$d/on.out"
# The JSONL sink captured structured events with seq numbering.
test -s "$d/events.jsonl"
grep -q '"kind"' "$d/events.jsonl"
grep -q '"seq"' "$d/events.jsonl"
# The JSON dump carries the registry snapshot.
grep -q '"mmogdc_ticks_total"' "$d/metrics.json"
# The trace is a Chrome trace_event document.
grep -q '"traceEvents"' "$d/run.trace"

# Post-run audit: the toolchain must digest the three artifacts into a
# report whose consistency checks pass (mmogaudit exits 1 otherwise).
"$d/mmogaudit" -events "$d/events.jsonl" -metrics "$d/metrics.json" \
    -trace "$d/run.trace" > "$d/audit.md"
grep -q '^# mmogdc provisioning audit' "$d/audit.md"
grep -q 'Consistency checks' "$d/audit.md"
grep -q 'OK' "$d/audit.md"

echo "obs-smoke: ok"
