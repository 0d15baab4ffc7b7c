#!/usr/bin/env bash
# perf_ab.sh — interleaved A/B of two revisions on the perfbench workloads.
#
#   scripts/perf_ab.sh BASE HEAD [PAIRS]
#
# Exports BASE and HEAD (any git revisions) into two fresh trees with
# git archive, so the checkout and its .git are left as they are, and
# builds the benchmark in each. Then, for each of the three workloads
# (design-sweep, serve-hot, cluster-write), it runs PAIRS (default 10)
# pairs of `bash perfbench/bench.sh --trace 0`, one run per side at the
# pair's seed, alternating which side runs first. Every run lasts
# BENCHMARK.json's run_seconds, the length the benchmark sets. For each
# end-to-end metric of BENCHMARK.json it prints each side's median
# [Q1–Q3], how many pairs HEAD won, the median gain in the metric's
# better direction and BASE's interquartile range (Q3 − Q1); a gain is
# worth claiming only when it exceeds that range. Every run must report
# correct=true; the failed operations of each side are summed.
#
# After the pairs it runs design-sweep and serve-hot once per side with
# --trace 1 at seed SEED0 and prints, side by side, the work counters
# that repeat exactly at one seed, marking each that differs: a change
# that claims unchanged work must show no mark.
#
# Environment variables:
#   SEED0   pair i of the w-th workload uses seed SEED0 + 100*w + i
#           (default 1000; pick seeds not used while writing the change)
#   AB_DIR  where the trees, run logs and raw results go (default: a new
#           temporary directory, kept and printed at the end)
#
# Run from the repository root. The two sides share the host, so run
# nothing else heavy meanwhile.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/perf_ab.sh BASE HEAD [PAIRS]" >&2
    exit 2
fi
base_rev="$1"
head_rev="$2"
pairs="${3:-10}"
workloads="design-sweep serve-hot cluster-write"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json 2>/dev/null || true)
if [ -z "$seconds" ]; then
    echo "perf_ab: no run_seconds in BENCHMARK.json; run from the repository root" >&2
    exit 2
fi
seed0="${SEED0:-1000}"
dir="${AB_DIR:-$(mktemp -d)}"
mkdir -p "$dir/raw"
results="$dir/results.tsv"
: > "$results"

# Metrics and their better direction, as in BENCHMARK.json's end_to_end.
metrics="setup_s:lower ops_per_s:higher latency_p50_ms:lower latency_p90_ms:lower peak_rss_mb:lower"

for side in base head; do
    rev="$base_rev"
    [ "$side" = head ] && rev="$head_rev"
    tree="$dir/$side"
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive --format=tar "$rev" | tar -x -C "$tree"
    echo "perf_ab: $side = $(git rev-parse --short "$rev"), building in $tree" >&2
    # A short run builds the benchmark and dimsatd into the tree.
    (cd "$tree" && bash perfbench/bench.sh --workload design-sweep --seconds 1 --trace 0) \
        > "$dir/raw/build.$side.log" 2>&1 || {
        echo "perf_ab: building $side failed; see $dir/raw/build.$side.log" >&2
        exit 1
    }
done

# value NAME FILE prints metric NAME from the JSON result line in FILE.
value() { sed -n 's/.*"'"$1"'":{"value":\([^,}]*\).*/\1/p' "$2"; }

run() { # run SIDE WORKLOAD PAIR SEED
    local side="$1" w="$2" i="$3" seed="$4"
    local out="$dir/raw/$w.$i.$side"
    if ! (cd "$dir/$side" && bash perfbench/bench.sh --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0) > "$out.stdout" 2> "$out.log"; then
        echo "perf_ab: $w pair $i ($side) failed; see $out.log" >&2
        exit 1
    fi
    tail -n 1 "$out.stdout" > "$out.json"
    local correct failed
    correct=$(sed -n 's/.*"correct":\([a-z]*\).*/\1/p' "$out.json")
    failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$out.json")
    printf '%s\t%s\t%s\t%s\tcorrect\t%s\n' "$w" "$side" "$i" "$seed" "$correct" >> "$results"
    printf '%s\t%s\t%s\t%s\tfailed\t%s\n' "$w" "$side" "$i" "$seed" "$failed" >> "$results"
    for m in $metrics; do
        printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$w" "$side" "$i" "$seed" "${m%%:*}" "$(value "${m%%:*}" "$out.json")" >> "$results"
    done
    echo "perf_ab: $w pair $i seed $seed $side: ops_per_s $(value ops_per_s "$out.json") correct=$correct failed=$failed" >&2
}

widx=0
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        seed=$((seed0 + 100 * widx + i))
        if [ $((i % 2)) -eq 1 ]; then
            run base "$w" "$i" "$seed"
            run head "$w" "$i" "$seed"
        else
            run head "$w" "$i" "$seed"
            run base "$w" "$i" "$seed"
        fi
    done
    widx=$((widx + 1))
done

# Work counters that repeat exactly at one seed, per traced workload.
exact="design-sweep:core.expansions,core.checks,core.dead_ends,cache.misses,pool.tasks,compile.compiles,core.explain_probes
serve-hot:cache.misses,cache.warmup_misses,compile.compiles"
for spec in $exact; do
    w="${spec%%:*}"
    for side in base head; do
        out="$dir/raw/$w.trace.$side"
        if ! (cd "$dir/$side" && bash perfbench/bench.sh --workload "$w" --seed "$seed0" \
            --seconds "$seconds" --trace 1) > "$out.stdout" 2> "$out.log"; then
            echo "perf_ab: traced $w ($side) failed; see $out.log" >&2
            exit 1
        fi
        tail -n 1 "$out.stdout" > "$out.json"
        echo "perf_ab: traced $w seed $seed0 $side: correct=$(sed -n 's/.*"correct":\([a-z]*\).*/\1/p' "$out.json")" >&2
    done
done

echo "perf_ab: base $(git rev-parse --short "$base_rev"), head $(git rev-parse --short "$head_rev"), $pairs pairs of ${seconds}s runs; raw results in $results"
awk -F '\t' -v metrics="$metrics" '
function quantile(v, n, q,   s, i, j, t, h, lo) {
    for (i = 1; i <= n; i++) s[i] = v[i]
    for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
    h = (n - 1) * q + 1; lo = int(h)
    return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}
function fmt(x,   a) { a = x < 0 ? -x : x; return sprintf(a >= 100 ? "%.0f" : a >= 1 ? "%.2f" : "%.4f", x) }
{
    if ($5 == "correct") { if ($6 != "true") wrong[$1 "," $2]++; next }
    if ($5 == "failed") { failed[$1 "," $2] += $6; next }
    k = $1 "," $5
    val[k "," $2 "," $3] = $6
    if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
    if ($3 > np[$1]) np[$1] = $3
}
END {
    nm = split(metrics, ms, " ")
    printf "%-14s %-5s %-15s %-26s %-26s %-8s %-6s %-10s %s\n", "workload", "pairs", "metric", "base median [Q1-Q3]", "head median [Q1-Q3]", "head/base", "wins", "gain", "base IQR"
    for (a = 1; a <= nw; a++) {
        w = order[a]; n = np[w]
        for (b = 1; b <= nm; b++) {
            split(ms[b], md, ":"); m = md[1]; lower = md[2] == "lower"
            wins = 0
            for (i = 1; i <= n; i++) {
                x = val[w "," m ",base," i]; y = val[w "," m ",head," i]
                B[i] = x; H[i] = y
                if ((lower && y < x) || (!lower && y > x)) wins++
            }
            bm = quantile(B, n, 0.5); hm = quantile(H, n, 0.5)
            iqr = quantile(B, n, 0.75) - quantile(B, n, 0.25)
            gain = lower ? bm - hm : hm - bm
            printf "%-14s %-5s %-15s %-26s %-26s %-8s %-6s %-10s %s\n", (b == 1 ? w : ""), (b == 1 ? n : ""), m,
                fmt(bm) " [" fmt(quantile(B, n, 0.25)) "-" fmt(quantile(B, n, 0.75)) "]",
                fmt(hm) " [" fmt(quantile(H, n, 0.25)) "-" fmt(quantile(H, n, 0.75)) "]",
                (bm != 0 ? sprintf("%.2f", hm / bm) : "-"), wins "/" n, fmt(gain), fmt(iqr)
        }
        printf "%-14s runs not correct: base %d, head %d; failed operations: base %d, head %d\n", "",
            wrong[w ",base"], wrong[w ",head"], failed[w ",base"], failed[w ",head"]
    }
}' "$results"

echo
echo "perf_ab: exact work counters, one --trace 1 run per side at seed $seed0 (* = differs)"
printf '%-14s %-22s %14s %14s\n' workload counter base head
for spec in $exact; do
    w="${spec%%:*}"
    for c in $(echo "${spec#*:}" | tr , ' '); do
        b=$(value "$c" "$dir/raw/$w.trace.base.json")
        h=$(value "$c" "$dir/raw/$w.trace.head.json")
        b="${b:-absent}" h="${h:-absent}"
        mark=""
        [ "$b" = "$h" ] || mark="*"
        printf '%-14s %-22s %14s %14s %s\n' "$w" "$c" "$b" "$h" "$mark"
    done
done
