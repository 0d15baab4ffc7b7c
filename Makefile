GO ?= go

.PHONY: build test check check-race race vet metrics-lint smoke-e2e smoke-cluster chaos-smoke chaos-sweep fuzz-smoke perfbench-test perfbench-smoke bench experiments clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check-race runs the full suite under the race detector; the concurrency
# surfaces (SatCache singleflight, the matrix worker pool, dimsatd
# admission control, the durable job store's workers) are only
# meaningfully tested with -race on.
check-race:
	$(GO) test -race ./...

race: check-race

# fuzz-smoke gives each fuzz target a short budget — enough to shake out
# regressions at the decode boundaries (constraint/schema text, instance
# and cube documents, search checkpoints, job-store snapshot files, any
# HTTP request to dimsatd and the coordinator) and in the engine's oracle
# and metamorphic verdict checks, without turning check into a long
# fuzzing session. go test accepts one -fuzz target per invocation, hence
# one run per target.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -fuzz=FuzzParseConstraint -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -fuzz=FuzzParseSchema -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -fuzz=FuzzDecodeInstance -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -fuzz=FuzzDecodeCube -fuzztime $(FUZZTIME) ./internal/codec
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzDimsatAgainstNaive -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzExplainCoreMinimal -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzDeriveMatchesCompile -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzMatrixAgainstSummarizable -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzCheckAgainstInduces -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzMetamorphicVerdicts -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime $(FUZZTIME) ./internal/jobs
	$(GO) test -fuzz=FuzzServeHTTP -fuzztime $(FUZZTIME) ./internal/server

# metrics-lint instantiates every metric family the server and the
# coordinator register and fails on naming-convention violations (the
# olapdim_ namespace, snake_case, counters end in _total, time in
# _seconds). See cmd/metricslint and docs/OBSERVABILITY.md.
metrics-lint:
	$(GO) run ./cmd/metricslint -q

# smoke-e2e boots dimsatd with a pprof listener and curls the
# observability surface end to end: /metrics families, X-Trace-ID ->
# /debug/spans/{id} (server.reason with the schema and search effort,
# server.request naming the X-Request-ID), the slow-search log, and
# /debug/pprof.
smoke-e2e:
	./scripts/e2e_smoke.sh

# smoke-cluster boots a coordinator fronting two dimsatd workers, drives
# it with a seeded load run, SIGKILLs one worker mid-run, and asserts
# the cluster recovers: reads fail over, health converges to 1/2, jobs
# complete on the survivor, olapdim_cluster_* families are live.
smoke-cluster:
	./scripts/cluster_smoke.sh

# chaos-smoke runs one seeded chaos round per topology through the real
# stack: generated fault schedule (partition/crash/disk faults), a
# deterministic workload driven through it, heal, then the four
# invariant oracles. Seeds 3 and 4 are committed regression seeds — see
# internal/chaos/chaos_test.go for the bugs they found. Deeper sweeps:
# make chaos-sweep or scripts/chaos_sweep.sh.
chaos-smoke:
	$(GO) run ./cmd/dimsatchaos -seed 3 -window 1500ms
	$(GO) run ./cmd/dimsatchaos -seed 4 -topology cluster -window 1500ms

# chaos-sweep walks a seed range per topology and reports the minimal
# failing seed, worth committing as a regression. Knobs: SEEDS, WINDOW,
# TOPOLOGY — see scripts/chaos_sweep.sh.
chaos-sweep:
	./scripts/chaos_sweep.sh

# perfbench-test runs the benchmark's self-tests (about 20 s; perfbench
# is its own module): the exact-counter checks, which require two
# design-sweep runs and two serve-hot runs at one seed to repeat their
# work counters, and the tests of its statistics.
perfbench-test:
	cd perfbench && $(GO) test -count=1 .

# perfbench-smoke runs every benchmark workload for 2 s at seed 1 with
# per-layer tracing, so each answer is checked against the library's:
# in process (design-sweep), through dimsatd (serve-hot) and through the
# coordinator (cluster-write). perfbench exits 0 on wrong answers, so the
# recipe reads the result line: it fails unless perfbench exits 0, the
# last line reports "correct":true, "failed":0 and attempted above 0, and
# no per-layer metric was absent. A single failed request, a 429 shed
# included, fails it. Speed does not: scripts/perf_ab.sh compares that.
perfbench-smoke:
	@for w in design-sweep serve-hot cluster-write; do \
		out=$$(bash perfbench/bench.sh --workload $$w --seed 1 --seconds 2 --trace 1) || \
			{ printf '%s\n' "$$out"; echo "perfbench-smoke: $$w: perfbench failed" >&2; exit 1; }; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		if ! printf '%s\n' "$$last" | grep -Eq '^\{"correct":true,"attempted":[1-9][0-9]*,"failed":0,' || \
			printf '%s\n' "$$out" | grep -q '^perfbench: absent:'; then \
			printf '%s\n' "$$out"; \
			echo "perfbench-smoke: $$w: wrong answer, failed operation or absent metric" >&2; exit 1; \
		fi; \
		echo "perfbench-smoke: $$w: $$(printf '%s\n' "$$last" | cut -d, -f1-3)"; \
	done

# check is the pre-merge gate: static analysis, the metric naming lint,
# the full test suite under the race detector (which replays the chaos
# regression seeds in internal/chaos), a fuzzing smoke pass over the
# decode boundaries, a chaos smoke round per topology, the benchmark's
# exact-counter and statistics tests, a short run of every benchmark
# workload that checks its answers, and the two smoke scripts that boot
# real processes: one dimsatd, and a coordinator over two workers.
check: vet metrics-lint check-race fuzz-smoke chaos-smoke perfbench-test perfbench-smoke smoke-e2e smoke-cluster

bench:
	$(GO) test -bench . -benchtime 1x ./...

experiments:
	$(GO) run ./cmd/olapbench -run all

clean:
	$(GO) clean ./...
