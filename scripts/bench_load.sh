#!/bin/sh
# bench_load.sh — one reproducible load-generation run against dimsatd.
#
# Builds dimsatd and dimsatload, generates the benchmark schema from the
# run seed, boots the daemon with durable jobs enabled, drives it with
# the seeded workload mix, and leaves the run record in $OUT
# (BENCH_dimsat.json by default). Every knob is an environment variable
# so Makefile targets and CI can reuse the script:
#
#   SEED=42 DURATION=30s RATE=200 ./scripts/bench_load.sh
#   MIX=sat=1,sources=1 OUT=BENCH_sources.json ./scripts/bench_load.sh
#
# Run from the repository root (make bench-load).
set -eu

PORT="${BENCH_PORT:-18090}"
SEED="${SEED:-42}"
DURATION="${DURATION:-10s}"
WARMUP="${WARMUP:-1s}"
RATE="${RATE:-0}"
CONCURRENCY="${CONCURRENCY:-0}"
MIX="${MIX:-sat=8,implies=5,summarizable=4,sources=2,jobs=1}"
OUT="${OUT:-BENCH_dimsat.json}"
TMP="$(mktemp -d)"
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "bench_load: FAIL: $*" >&2
    [ -f "$TMP/dimsatd.log" ] && sed 's/^/bench_load:   dimsatd: /' "$TMP/dimsatd.log" >&2
    exit 1
}

echo "bench_load: building dimsatd and dimsatload"
go build -o "$TMP/dimsatd" ./cmd/dimsatd
go build -o "$TMP/dimsatload" ./cmd/dimsatload

# The same seed generates the schema here and the request stream below,
# so the run is reproducible end to end from one number.
echo "bench_load: generating schema (seed $SEED)"
"$TMP/dimsatload" -seed "$SEED" -write-schema "$TMP/bench.dims"

echo "bench_load: starting dimsatd on :$PORT"
"$TMP/dimsatd" -addr "127.0.0.1:$PORT" -jobs-dir "$TMP/jobs" \
    "$TMP/bench.dims" >"$TMP/dimsatd.log" 2>&1 &
PID=$!

BASE="http://127.0.0.1:$PORT"
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "server did not become healthy"
    kill -0 "$PID" 2>/dev/null || fail "dimsatd exited early"
    sleep 0.1
done

echo "bench_load: running load (mix $MIX, rate $RATE, duration $DURATION)"
"$TMP/dimsatload" -seed "$SEED" -target "$BASE" -mix "$MIX" \
    -rate "$RATE" -concurrency "$CONCURRENCY" \
    -duration "$DURATION" -warmup "$WARMUP" -out "$OUT" \
    || fail "load run reported errors"

grep -q '"schemaVersion"' "$OUT" || fail "$OUT is not a run record"
echo "bench_load: PASS ($OUT)"
