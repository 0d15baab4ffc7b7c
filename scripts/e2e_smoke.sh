#!/bin/sh
# e2e_smoke.sh — end-to-end observability smoke test for dimsatd.
#
# Builds the daemon, starts it against the paper's location schema with
# always-on structured tracing and a pprof debug listener, then drives it
# with curl: a /sat search must yield an X-Request-ID whose structured
# trace is retrievable at /debug/traces/{id} with expand events, /metrics
# must expose the serving and search-effort families, and the debug
# listener must answer a pprof request. Run from the repository root
# (make smoke-e2e).
set -eu

PORT="${SMOKE_PORT:-18080}"
DEBUG_PORT="${SMOKE_DEBUG_PORT:-18081}"
SCHEMA="cmd/dimsat/testdata/location.dims"
TMP="$(mktemp -d)"
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "e2e_smoke: FAIL: $*" >&2
    [ -f "$TMP/dimsatd.log" ] && sed 's/^/e2e_smoke:   dimsatd: /' "$TMP/dimsatd.log" >&2
    exit 1
}

echo "e2e_smoke: building dimsatd and dimsatload"
go build -o "$TMP/dimsatd" ./cmd/dimsatd
go build -o "$TMP/dimsatload" ./cmd/dimsatload

echo "e2e_smoke: starting dimsatd on :$PORT (pprof on :$DEBUG_PORT)"
"$TMP/dimsatd" -addr "127.0.0.1:$PORT" -debug-addr "127.0.0.1:$DEBUG_PORT" \
    -log "$TMP/requests.jsonl" -trace-every 1 -slow-search 1 \
    "$SCHEMA" >"$TMP/dimsatd.log" 2>&1 &
PID=$!

BASE="http://127.0.0.1:$PORT"
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "server did not become healthy"
    kill -0 "$PID" 2>/dev/null || fail "dimsatd exited early"
    sleep 0.1
done

echo "e2e_smoke: GET /sat"
curl -fsS -D "$TMP/headers" "$BASE/sat?category=Store" >"$TMP/sat.json" \
    || fail "/sat request failed"
grep -q '"satisfiable":true' "$TMP/sat.json" || fail "/sat did not answer satisfiable"
REQ_ID="$(tr -d '\r' <"$TMP/headers" | awk -F': ' 'tolower($1) == "x-request-id" {print $2}')"
[ -n "$REQ_ID" ] || fail "no X-Request-ID response header"
TRACE_ID="$(tr -d '\r' <"$TMP/headers" | awk -F': ' 'tolower($1) == "x-trace-id" {print $2}')"
[ -n "$TRACE_ID" ] || fail "no X-Trace-ID response header"
echo "e2e_smoke: request id $REQ_ID, trace id $TRACE_ID"

echo "e2e_smoke: GET /explain"
curl -fsS "$BASE/explain?category=Store" >"$TMP/explain.json" \
    || fail "/explain request failed"
grep -q '"satisfiable":true' "$TMP/explain.json" || fail "/explain did not answer satisfiable"
grep -q '"provenance"' "$TMP/explain.json" || fail "/explain carried no provenance"

echo "e2e_smoke: GET /metrics"
curl -fsS "$BASE/metrics" >"$TMP/metrics" || fail "/metrics request failed"
for family in \
    dimsat_http_requests_total \
    dimsat_http_request_duration_seconds_bucket \
    dimsat_cache_misses_total \
    dimsat_pool_tasks_total \
    dimsat_search_expansions_bucket \
    dimsat_slow_searches_total \
    olapdim_explain_requests_total \
    olapdim_explain_shrink_probes_total \
    olapdim_explain_core_size_bucket \
    olapdim_explain_budget_exhausted_total \
    dimsat_uptime_seconds; do
    grep -q "^$family" "$TMP/metrics" || fail "/metrics is missing $family"
done

echo "e2e_smoke: GET /debug/traces/$REQ_ID"
curl -fsS "$BASE/debug/traces/$REQ_ID" >"$TMP/trace.json" \
    || fail "trace for $REQ_ID not retrievable"
grep -q '"kind":"expand"' "$TMP/trace.json" || fail "trace has no expand events"
grep -q '"kind":"check"' "$TMP/trace.json" || fail "trace has no check events"

echo "e2e_smoke: GET /debug/spans/$TRACE_ID"
curl -fsS "$BASE/debug/spans/$TRACE_ID" >"$TMP/spans.json" \
    || fail "distributed-trace spans for $TRACE_ID not retrievable"
grep -q '"name":"server.request"' "$TMP/spans.json" \
    || fail "trace $TRACE_ID has no server.request span"

echo "e2e_smoke: slow-search log"
grep -q '"event":"slow_search"' "$TMP/requests.jsonl" \
    || fail "no slow_search line in the structured log"
grep -q "\"requestId\":\"$REQ_ID\"" "$TMP/requests.jsonl" \
    || fail "structured log has no line for $REQ_ID"

echo "e2e_smoke: dimsatload against the live server"
# A short seeded burst over the served schema (no jobs op: this daemon
# runs without -jobs-dir) must finish error-free and produce a valid
# run record with client percentiles and server effort deltas.
"$TMP/dimsatload" -seed 7 -target "$BASE" -schema "$SCHEMA" \
    -mix "sat=4,implies=2,summarizable=2,sources=1,explain=1" \
    -duration 2s -warmup 200ms -out "$TMP/BENCH_e2e.json" \
    2>"$TMP/dimsatload.log" \
    || { sed 's/^/e2e_smoke:   dimsatload: /' "$TMP/dimsatload.log" >&2; \
         fail "dimsatload run reported errors"; }
grep -q '"schemaVersion"' "$TMP/BENCH_e2e.json" || fail "run record missing schemaVersion"
grep -q '"p50Ms"' "$TMP/BENCH_e2e.json" || fail "run record has no client percentiles"
grep -q '"dimsat_search_expansions_sum"' "$TMP/BENCH_e2e.json" \
    || fail "run record has no server effort deltas"

echo "e2e_smoke: pprof debug listener"
curl -fsS "http://127.0.0.1:$DEBUG_PORT/debug/pprof/cmdline" >/dev/null \
    || fail "pprof listener did not answer"

echo "e2e_smoke: PASS"
