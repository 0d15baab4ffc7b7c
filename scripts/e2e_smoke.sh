#!/bin/sh
# e2e_smoke.sh — end-to-end observability smoke test for dimsatd.
#
# Builds the daemon, starts it against the paper's location schema with
# a pprof debug listener, then drives it with curl: a /sat search must
# yield an X-Trace-ID whose spans are retrievable at /debug/spans/{id},
# with a server.reason span carrying the schema and the search effort and
# a server.request span naming the X-Request-ID; /summarizable must answer
# from the walks a /sources request retained, without a cache miss, and
# reject a repeated source with 400; /metrics must expose the serving and
# search-effort families; after a load burst, the trace /stats names as
# the slowest 2xx request's exemplar must still be at /debug/spans/{id};
# and the debug listener must answer a pprof request. Run from the
# repository root (make smoke-e2e).
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
    -log "$TMP/requests.jsonl" -slow-search 1 \
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

# cache_misses prints the olapdim_cache_misses_total sample.
cache_misses() {
    curl -fsS "$BASE/metrics" | awk '$1 == "olapdim_cache_misses_total" {print $2}'
}

echo "e2e_smoke: POST /summarizable on the walks /sources retained"
curl -fsS "$BASE/sources?target=Country" >"$TMP/sources.json" \
    || fail "/sources request failed"
MISSES="$(cache_misses)"
[ -n "$MISSES" ] || fail "/metrics has no olapdim_cache_misses_total sample"
curl -fsS -X POST "$BASE/summarizable" -d '{"target":"Country","from":["City"]}' \
    >"$TMP/summarizable.json" || fail "/summarizable {City} failed"
grep -q '"summarizable":true' "$TMP/summarizable.json" \
    || fail "Country not summarizable from {City}: $(cat "$TMP/summarizable.json")"
curl -fsS -X POST "$BASE/summarizable" -d '{"target":"Country","from":["State","Province"]}' \
    >"$TMP/summarizable.json" || fail "/summarizable {State, Province} failed"
grep -q '"summarizable":false' "$TMP/summarizable.json" \
    && grep -q '"counterexample":"[^"]' "$TMP/summarizable.json" \
    || fail "{State, Province} answer carries no counterexample: $(cat "$TMP/summarizable.json")"
[ "$(cache_misses)" = "$MISSES" ] \
    || fail "/summarizable missed the cache: olapdim_cache_misses_total $MISSES -> $(cache_misses)"
CODE="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$BASE/summarizable" \
    -d '{"target":"Country","from":["City","City"]}')"
[ "$CODE" = 400 ] || fail "/summarizable with a repeated source answered $CODE, want 400"

echo "e2e_smoke: GET /metrics"
curl -fsS "$BASE/metrics" >"$TMP/metrics" || fail "/metrics request failed"
for family in \
    olapdim_http_requests_total \
    olapdim_http_request_duration_seconds_bucket \
    olapdim_cache_misses_total \
    olapdim_pool_tasks_total \
    olapdim_search_expansions_bucket \
    olapdim_slow_searches_total \
    olapdim_explain_requests_total \
    olapdim_explain_shrink_probes_total \
    olapdim_explain_core_size_bucket \
    olapdim_explain_budget_exhausted_total \
    olapdim_uptime_seconds; do
    grep -q "^$family" "$TMP/metrics" || fail "/metrics is missing $family"
done

echo "e2e_smoke: GET /debug/spans/$TRACE_ID"
curl -fsS "$BASE/debug/spans/$TRACE_ID" >"$TMP/spans.json" \
    || fail "distributed-trace spans for $TRACE_ID not retrievable"
# One span per line, so each check below looks inside a single span.
sed 's/},{"traceId"/}\n{"traceId"/g' "$TMP/spans.json" >"$TMP/spans.lines"
REASON="$(grep '"name":"server.reason"' "$TMP/spans.lines")" \
    || fail "trace $TRACE_ID has no server.reason span"
for attr in schema expansions checks; do
    printf '%s\n' "$REASON" | grep -q "\"$attr\":\"[^\"]" \
        || fail "server.reason span has no $attr attribute: $REASON"
done
grep '"name":"server.request"' "$TMP/spans.lines" | grep -q "\"requestId\":\"$REQ_ID\"" \
    || fail "trace $TRACE_ID has no server.request span with requestId $REQ_ID"

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
grep -q '"olapdim_search_expansions_sum"' "$TMP/BENCH_e2e.json" \
    || fail "run record has no server effort deltas"

# /stats is the registry as JSON; exposition 0.0.4 has no exemplar
# syntax, so it is where the slowest request's trace is named. The span
# store pins that trace however many reads followed it.
echo "e2e_smoke: GET /stats exemplar"
curl -fsS "$BASE/stats" >"$TMP/stats.json" || fail "/stats request failed"
EXEMPLAR="$(sed -n 's/.*"olapdim_http_request_duration_seconds":{"2xx":{[^}]*"slowestExemplar":{"traceId":"\([0-9a-f]*\)".*/\1/p' "$TMP/stats.json")"
[ -n "$EXEMPLAR" ] || fail "/stats names no 2xx latency exemplar: $(cat "$TMP/stats.json")"
i=0
until curl -fsS "$BASE/debug/spans/$EXEMPLAR" 2>/dev/null | grep -q "\"traceId\":\"$EXEMPLAR\""; do
    i=$((i + 1))
    [ "$i" -gt 20 ] && fail "exemplar trace $EXEMPLAR is not at /debug/spans/$EXEMPLAR"
    sleep 0.1
done
echo "e2e_smoke: exemplar trace $EXEMPLAR retained"

echo "e2e_smoke: pprof debug listener"
curl -fsS "http://127.0.0.1:$DEBUG_PORT/debug/pprof/cmdline" >/dev/null \
    || fail "pprof listener did not answer"

echo "e2e_smoke: PASS"
