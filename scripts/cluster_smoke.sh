#!/bin/sh
# cluster_smoke.sh — end-to-end robustness smoke test for the sharded
# dimsatd cluster.
#
# Builds dimsatd and dimsatload, boots two workers over the same
# generated schema plus a coordinator fronting them, then exercises the
# failure model for real: a seeded load run drives the coordinator while
# one worker is SIGKILLed mid-run. The run must finish error-free (reads
# fail over to the survivor), the coordinator must converge to 1/2
# healthy workers while staying ready, a job submitted after the kill
# must complete on the survivor, an implies job must raise the
# survivor's olapdim_compiles_total (its job store and server share one
# compiled schema), the trace the coordinator's /stats names as its
# slowest 2xx request's exemplar must assemble at /cluster/trace/{id},
# and the olapdim_cluster_* metric families must be live on the
# coordinator's /metrics. Run from the repository root (make
# smoke-cluster).
set -eu

COORD_PORT="${SMOKE_COORD_PORT:-18091}"
COORD_DEBUG_PORT="${SMOKE_COORD_DEBUG_PORT:-18094}"
W1_PORT="${SMOKE_W1_PORT:-18092}"
W2_PORT="${SMOKE_W2_PORT:-18093}"
SEED="${SEED:-42}"
TMP="$(mktemp -d)"
COORD_PID=""
W1_PID=""
W2_PID=""

cleanup() {
    for pid in "$COORD_PID" "$W1_PID" "$W2_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for pid in "$COORD_PID" "$W1_PID" "$W2_PID"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster_smoke: FAIL: $*" >&2
    for log in coordinator worker1 worker2 dimsatload; do
        [ -f "$TMP/$log.log" ] && sed "s/^/cluster_smoke:   $log: /" "$TMP/$log.log" >&2
    done
    exit 1
}

echo "cluster_smoke: building dimsatd and dimsatload"
go build -o "$TMP/dimsatd" ./cmd/dimsatd
go build -o "$TMP/dimsatload" ./cmd/dimsatload

echo "cluster_smoke: generating schema (seed $SEED)"
"$TMP/dimsatload" -seed "$SEED" -write-schema "$TMP/bench.dims"

echo "cluster_smoke: starting workers on :$W1_PORT and :$W2_PORT"
"$TMP/dimsatd" -addr "127.0.0.1:$W1_PORT" -jobs-dir "$TMP/jobs1" \
    "$TMP/bench.dims" >"$TMP/worker1.log" 2>&1 &
W1_PID=$!
"$TMP/dimsatd" -addr "127.0.0.1:$W2_PORT" -jobs-dir "$TMP/jobs2" \
    "$TMP/bench.dims" >"$TMP/worker2.log" 2>&1 &
W2_PID=$!

echo "cluster_smoke: starting coordinator on :$COORD_PORT"
"$TMP/dimsatd" -coordinator \
    -addr "127.0.0.1:$COORD_PORT" \
    -workers "http://127.0.0.1:$W1_PORT,http://127.0.0.1:$W2_PORT" \
    -probe-interval 200ms -poll-interval 100ms \
    -fail-after 2 -recover-after 1 \
    -debug-addr "127.0.0.1:$COORD_DEBUG_PORT" \
    >"$TMP/coordinator.log" 2>&1 &
COORD_PID=$!

BASE="http://127.0.0.1:$COORD_PORT"
i=0
until curl -fsS "$BASE/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "coordinator did not become ready"
    kill -0 "$COORD_PID" 2>/dev/null || fail "coordinator exited early"
    sleep 0.1
done

curl -fsS "$BASE/cluster" >"$TMP/cluster0.json" || fail "/cluster request failed"
grep -q '"healthy":2' "$TMP/cluster0.json" || fail "cluster did not start 2/2 healthy"
echo "cluster_smoke: 2/2 workers healthy"

# The coordinator serves pprof on its own debug listener, as a worker does.
curl -fsS "http://127.0.0.1:$COORD_DEBUG_PORT/debug/pprof/cmdline" | grep -q -- "-coordinator" ||
    fail "coordinator pprof listener did not answer /debug/pprof/cmdline"
echo "cluster_smoke: coordinator pprof listener up"

# Routed reads answer through the coordinator exactly like a single
# dimsatd would.
curl -fsS "$BASE/categories" >/dev/null || fail "/categories via coordinator failed"

# A routed read must yield one distributed trace assembled across the
# coordinator and the worker that served it: coordinator.request →
# cluster.forward → server.request (plus the worker's reasoning span).
echo "cluster_smoke: distributed trace for a routed read"
curl -fsS -D "$TMP/sat_headers" "$BASE/sat?category=All" >/dev/null \
    || fail "/sat via coordinator failed"
TRACE_ID="$(tr -d '\r' <"$TMP/sat_headers" | awk -F': ' 'tolower($1) == "x-trace-id" {print $2}')"
[ -n "$TRACE_ID" ] || fail "no X-Trace-ID response header from the coordinator"
# The coordinator records its own root span just after answering; retry
# briefly so the assembly has all its spans.
i=0
until curl -fsS "$BASE/cluster/trace/$TRACE_ID" >"$TMP/trace.json" 2>/dev/null \
    && grep -q '"wellParented":true' "$TMP/trace.json"; do
    i=$((i + 1))
    [ "$i" -gt 20 ] && fail "trace $TRACE_ID never assembled well-parented"
    sleep 0.1
done
SPAN_COUNT="$(grep -o '"spanId"' "$TMP/trace.json" | wc -l | tr -d ' ')"
[ "$SPAN_COUNT" -ge 3 ] || fail "assembled trace has $SPAN_COUNT spans, want >= 3"
echo "cluster_smoke: trace $TRACE_ID assembled with $SPAN_COUNT spans"

echo "cluster_smoke: load run with a mid-run worker kill"
"$TMP/dimsatload" -seed "$SEED" -target "$BASE" \
    -mix "sat=8,implies=5,summarizable=4,sources=2,jobs=1" \
    -duration 6s >"$TMP/dimsatload.log" 2>&1 &
LOAD_PID=$!
sleep 2
echo "cluster_smoke: SIGKILL worker 1 (pid $W1_PID)"
kill -9 "$W1_PID" 2>/dev/null || fail "could not kill worker 1"
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
wait "$LOAD_PID" || { sed 's/^/cluster_smoke:   dimsatload: /' "$TMP/dimsatload.log" >&2; \
    fail "load run reported errors after the worker kill"; }
echo "cluster_smoke: load run finished with 0 failed requests"

# The coordinator must have converged: one worker down, still ready.
i=0
until curl -fsS "$BASE/cluster" 2>/dev/null | grep -q '"healthy":1'; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "coordinator never marked the killed worker down"
    sleep 0.1
done
curl -fsS "$BASE/readyz" >/dev/null || fail "coordinator not ready with one healthy worker"
echo "cluster_smoke: converged to 1/2 healthy, still ready"

# Reads and jobs keep working against the surviving shard.
curl -fsS "$BASE/sat?category=All" >/dev/null || fail "read after kill failed"
JOB="$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"kind":"sat","category":"All"}' "$BASE/jobs")" \
    || fail "job submit after kill failed"
JOB_ID="$(printf '%s' "$JOB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB_ID" ] || fail "job submit returned no id: $JOB"
i=0
until curl -fsS "$BASE/jobs/$JOB_ID" 2>/dev/null | grep -q '"state":"done"'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "job $JOB_ID did not finish on the survivor"
    sleep 0.1
done
echo "cluster_smoke: job $JOB_ID finished on the surviving worker"

# A worker's job store and HTTP server share one compiled schema, so the
# Theorem 2 schema an implies job derives is a compile the worker's
# olapdim_compiles_total counts. C0.All is a constraint no read of the
# load run asks (loadgen asks Σ members and path atoms).
W2_BASE="http://127.0.0.1:$W2_PORT"
compiles() {
    curl -fsS "$W2_BASE/metrics" | awk '$1 == "olapdim_compiles_total" {print $2}'
}
BEFORE="$(compiles)"
[ -n "$BEFORE" ] || fail "surviving worker exports no olapdim_compiles_total"
JOB="$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"kind":"implies","constraint":"C0.All"}' "$BASE/jobs")" \
    || fail "implies job submit failed"
JOB_ID="$(printf '%s' "$JOB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB_ID" ] || fail "implies job submit returned no id: $JOB"
i=0
until curl -fsS "$BASE/jobs/$JOB_ID" 2>/dev/null | grep -q '"state":"done"'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "implies job $JOB_ID did not finish on the survivor"
    sleep 0.1
done
AFTER="$(compiles)"
awk -v a="$AFTER" -v b="$BEFORE" 'BEGIN { exit !(a > b) }' \
    || fail "implies job left olapdim_compiles_total at $AFTER (was $BEFORE): the job store compiles apart from the server"
echo "cluster_smoke: implies job $JOB_ID raised olapdim_compiles_total $BEFORE -> $AFTER"

# The coordinator's /stats is its registry as JSON, exemplars included:
# the slowest 2xx request's trace is pinned on the coordinator and
# assembles across the cluster.
echo "cluster_smoke: GET /stats exemplar"
curl -fsS "$BASE/stats" >"$TMP/stats.json" || fail "/stats request failed"
EXEMPLAR="$(sed -n 's/.*"olapdim_cluster_http_request_duration_seconds":{"2xx":{[^}]*"slowestExemplar":{"traceId":"\([0-9a-f]*\)".*/\1/p' "$TMP/stats.json")"
[ -n "$EXEMPLAR" ] || fail "coordinator /stats names no 2xx latency exemplar: $(cat "$TMP/stats.json")"
i=0
until curl -fsS "$BASE/cluster/trace/$EXEMPLAR" 2>/dev/null | grep -q "\"traceId\":\"$EXEMPLAR\""; do
    i=$((i + 1))
    [ "$i" -gt 20 ] && fail "exemplar trace $EXEMPLAR does not assemble at /cluster/trace/$EXEMPLAR"
    sleep 0.1
done
echo "cluster_smoke: exemplar trace $EXEMPLAR assembled"

echo "cluster_smoke: GET /metrics"
curl -fsS "$BASE/metrics" >"$TMP/metrics" || fail "/metrics request failed"
for family in \
    olapdim_cluster_http_requests_total \
    olapdim_cluster_forwards_total \
    olapdim_cluster_failovers_total \
    olapdim_cluster_probes_total \
    olapdim_cluster_worker_transitions_total \
    olapdim_cluster_workers_healthy \
    olapdim_cluster_uptime_seconds; do
    grep -q "^$family" "$TMP/metrics" || fail "/metrics is missing $family"
done

# The federated exposition must aggregate the coordinator's registry and
# the surviving worker's scrape, every sample labeled with its origin.
echo "cluster_smoke: GET /cluster/metrics"
curl -fsS "$BASE/cluster/metrics" >"$TMP/fed_metrics" || fail "/cluster/metrics request failed"
grep -q 'worker="coordinator"' "$TMP/fed_metrics" \
    || fail "federated metrics have no coordinator-origin samples"
grep -q "worker=\"http://127.0.0.1:$W2_PORT\"" "$TMP/fed_metrics" \
    || fail "federated metrics have no samples from the surviving worker"
grep -q '^olapdim_cluster_federation_scrapes_total{' "$TMP/fed_metrics" \
    || fail "federated metrics missing olapdim_cluster_federation_scrapes_total"
grep -q '^olapdim_http_requests_total{' "$TMP/fed_metrics" \
    || fail "federated metrics missing the workers' serving families"

echo "cluster_smoke: PASS"
