#!/usr/bin/env sh
# Short fuzz passes beyond the committed seed corpora (testdata/fuzz),
# one target per run (go test -fuzz takes one at a time):
#   - the operator's checkpoint restore must turn corrupt payloads into
#     errors, never panics, and an accepted payload's snapshot must
#     restore over a fresh matcher to the same bytes;
#   - POST /v1/config must answer hostile bodies with 200 or a typed
#     4xx, and an accepted config must round-trip GET -> POST -> GET;
#   - POST /v1/observe's body reader must answer any body as the
#     streaming encoding/json decode does: the same error text, or the
#     same game and bit-equal values;
#   - mmogaudit must answer a hostile event stream with a load error or
#     a report, never a panic or a hang;
#   - it must answer a hostile span trace (timing sections and the
#     cross-process merge) the same way;
#   - a hostile blackout spec and fault config must be rejected or give
#     a plan whose every window lies inside the run;
#   - a corrupt core checkpoint payload must be refused, leaving the
#     caller's centers as built, or resume to a well-formed Result;
#   - a corrupt neural predictor snapshot must be refused or keep
#     predicting and snapshot back to the same bytes;
#   - so must any payload restored into a predictor of any of the nine
#     kinds, and a refused one must leave the predictor as it was;
#   - ParseTraceparent must accept exactly the W3C version-00 headers;
#   - any method, query, traceparent and body sent to a /v1 endpoint of
#     a traced daemon must get a documented status, a typed error body
#     when it is not 2xx, and exactly one count in the request
#     histogram.
# An accepted core payload replays the rest of its run, so
# FuzzCoreResume caps minimization at 1s: shrinking a 6 KB payload byte
# by byte would otherwise take the whole pass. FuzzOperatorFromSnapshot
# caps it too: an accepted operator payload is restored twice and
# observed, and minimizing the first new 2 KB input took the rest of a
# 20s pass (1,448 execs, against 43,283 with the cap). FuzzDaemonRequest
# caps it too: its one daemon keeps its state from input to input, so
# an input's coverage does not repeat and minimizing it runs out the
# default 60s.
set -eu
cd "$(dirname "$0")/.."

go test -run '^$' -fuzz '^FuzzOperatorFromSnapshot$' -fuzztime 10s -fuzzminimizetime 1s ./internal/operator/
go test -run '^$' -fuzz '^FuzzConfigPost$' -fuzztime 10s ./internal/daemon/
go test -run '^$' -fuzz '^FuzzObserveBody$' -fuzztime 10s ./internal/daemon/
go test -run '^$' -fuzz '^FuzzAnalyzeEvents$' -fuzztime 10s ./internal/audit/
go test -run '^$' -fuzz '^FuzzAnalyzeTrace$' -fuzztime 10s ./internal/audit/
go test -run '^$' -fuzz '^FuzzFaultPlan$' -fuzztime 10s ./internal/faults/
go test -run '^$' -fuzz '^FuzzCoreResume$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
go test -run '^$' -fuzz '^FuzzNeuralRestore$' -fuzztime 10s ./internal/predict/
go test -run '^$' -fuzz '^FuzzPredictorRestore$' -fuzztime 10s ./internal/predict/
go test -run '^$' -fuzz '^FuzzParseTraceparent$' -fuzztime 10s ./internal/obs/
go test -run '^$' -fuzz '^FuzzDaemonRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/daemon/
