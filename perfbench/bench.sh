#!/usr/bin/env bash
# bench.sh — build and run the olapdim benchmark from the repository root.
#
#   bash perfbench/bench.sh --workload design-sweep --seed 1 --seconds 10 --trace 0
#
# Builds the benchmark (its own module in perfbench/) and dimsatd from
# source into $CARGO_TARGET_DIR (default .bench_build). The Go build cache
# and the go command's config directory live there too, so a run reads
# and writes only inside the checkout. All arguments go to the
# benchmark; see perfbench/main.go.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dimsatd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the olapdim repository root (go.mod, cmd/dimsatd and perfbench/ not found)" >&2
    exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
out="$build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/dimsatd" ./cmd/dimsatd >&2

exec "$out/perfbench" -dimsatd "$out/dimsatd" -workdir "$out" -digests "$root/perfbench/digests.json" -inputs "$root/perfbench/inputs.json" "$@"
