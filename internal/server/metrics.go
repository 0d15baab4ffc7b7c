package server

import (
	"time"

	"olapdim/internal/obs"
)

// serverMetrics holds every instrument the server updates on its hot
// paths. All families live under the olapdim_ prefix and follow the
// naming conventions obs.Lint enforces (cmd/metricslint runs it in
// `make check`). Counters owned by other subsystems — the SatCache, the
// job store, the fault injector — are not mirrored here; they are
// registered as collect-at-scrape functions in registerCollectors and
// read their owners directly.
type serverMetrics struct {
	// requests are the families obs.RequestObserver counts and times
	// every HTTP request in.
	requests obs.RequestMetrics
	inflight *obs.Gauge
	queued   *obs.Gauge
	shed     *obs.Counter
	tooLarge *obs.Counter
	timeouts *obs.Counter
	panics   *obs.Counter

	poolBatches  *obs.Counter
	poolTasks    *obs.Counter
	poolTaskErrs *obs.Counter
	poolQueue    *obs.Gauge
	poolInflight *obs.Gauge
	poolTaskDur  *obs.Histogram

	searchExpansions *obs.Histogram
	searchChecks     *obs.Histogram
	searchBacktracks *obs.Histogram
	slowSearches     *obs.Counter

	explainRequests  *obs.Counter
	explainProbes    *obs.Counter
	explainCoreSize  *obs.Histogram
	explainExhausted *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests: obs.RequestMetrics{
			Received: reg.Counter("olapdim_http_requests_received_total",
				"HTTP requests received, counted at arrival before routing."),
			Total: reg.CounterVec("olapdim_http_requests_total",
				"HTTP requests completed, by status class.", "code_class"),
			Duration: reg.HistogramVec("olapdim_http_request_duration_seconds",
				"HTTP request wall-clock latency, by status class.", "code_class", obs.DurationBuckets()),
		},
		inflight: reg.Gauge("olapdim_http_inflight_requests",
			"Reasoning requests currently holding an execution slot."),
		queued: reg.Gauge("olapdim_http_queued_requests",
			"Reasoning requests waiting for an execution slot."),
		shed: reg.Counter("olapdim_http_shed_total",
			"Reasoning requests shed with 429 by admission control."),
		tooLarge: reg.Counter("olapdim_http_body_too_large_total",
			"Requests rejected with 413 for exceeding the body limit."),
		timeouts: reg.Counter("olapdim_http_request_timeouts_total",
			"Reasoning requests answered 504 after the per-request deadline."),
		panics: reg.Counter("olapdim_contained_panics_total",
			"Panics contained by the serving or reasoning recovery layers."),

		poolBatches: reg.Counter("olapdim_pool_batches_total",
			"Worker-pool batches started (matrix walks, category sweeps)."),
		poolTasks: reg.Counter("olapdim_pool_tasks_total",
			"Worker-pool tasks started."),
		poolTaskErrs: reg.Counter("olapdim_pool_task_errors_total",
			"Worker-pool tasks that returned an error or panicked."),
		poolQueue: reg.Gauge("olapdim_pool_queue_depth",
			"Worker-pool tasks enqueued by a batch and not yet started."),
		poolInflight: reg.Gauge("olapdim_pool_inflight_tasks",
			"Worker-pool tasks currently executing."),
		poolTaskDur: reg.Histogram("olapdim_pool_task_duration_seconds",
			"Worker-pool task latency.", obs.DurationBuckets()),

		searchExpansions: reg.Histogram("olapdim_search_expansions",
			"EXPAND steps performed per reasoning request (cache hits observe 0).", obs.EffortBuckets()),
		searchChecks: reg.Histogram("olapdim_search_checks",
			"CHECK steps performed per reasoning request.", obs.EffortBuckets()),
		searchBacktracks: reg.Histogram("olapdim_search_backtracks",
			"Pruning dead ends hit per reasoning request.", obs.EffortBuckets()),
		slowSearches: reg.Counter("olapdim_slow_searches_total",
			"Reasoning requests whose expansions exceeded the slow-search threshold."),

		explainRequests: reg.Counter("olapdim_explain_requests_total",
			"Verdict-provenance requests served (GET /explain and provenance-enabled POST /implies)."),
		explainProbes: reg.Counter("olapdim_explain_shrink_probes_total",
			"Unsat-core deletion probes executed by explain requests."),
		explainCoreSize: reg.Histogram("olapdim_explain_core_size",
			"Minimal unsat-core sizes returned by explain requests (UNSAT verdicts only).", obs.EffortBuckets()),
		explainExhausted: reg.Counter("olapdim_explain_budget_exhausted_total",
			"Explain requests whose core shrinking stopped early on budget or deadline, returning a partial core."),
	}
}

// poolObserver feeds the worker-pool gauges and histograms from the
// core.PoolObserver callbacks. One instance is installed into the shared
// reasoning options, so every batch surface (matrix, sweeps, lint) and
// every request reports into the same server-wide family.
type poolObserver struct{ m *serverMetrics }

func (p poolObserver) BatchStart(tasks int) {
	p.m.poolBatches.Inc()
	p.m.poolQueue.Add(int64(tasks))
}

func (p poolObserver) BatchDone(skipped int) {
	p.m.poolQueue.Add(-int64(skipped))
}

func (p poolObserver) TaskStart() {
	p.m.poolTasks.Inc()
	p.m.poolQueue.Add(-1)
	p.m.poolInflight.Add(1)
}

func (p poolObserver) TaskDone(d time.Duration, err error) {
	p.m.poolInflight.Add(-1)
	p.m.poolTaskDur.Observe(d.Seconds())
	if err != nil {
		p.m.poolTaskErrs.Inc()
	}
}

// registerCollectors registers the scrape-time families that read
// state owned by other subsystems: server uptime, the shared SatCache,
// the job store (when hosted) and the fault injector (when armed).
func (s *Server) registerCollectors(reg *obs.Registry) {
	reg.GaugeFunc("olapdim_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })

	// Build metadata as a constant info gauge, so a scrape (and any
	// BENCH_*.json derived from scrape deltas) identifies which binary
	// produced the numbers. The same fields come from obs.GetBuildInfo in
	// the load generator's run records.
	reg.Info("olapdim_build_info",
		"Build metadata: module version, Go toolchain, VCS revision. Constant 1.",
		obs.GetBuildInfo().Labels())

	spans := s.spans
	reg.CounterFunc("olapdim_spans_recorded_total",
		"Distributed-trace spans recorded into the span store.",
		func() float64 { return float64(spans.Recorded()) })
	reg.CounterFunc("olapdim_spans_dropped_total",
		"Spans dropped by the span store's trace and size bounds.",
		func() float64 { return float64(spans.Dropped()) })

	cache := s.opts.Cache
	reg.CounterFunc("olapdim_cache_hits_total",
		"Satisfiability calls and bottom-category walks answered from the shared cache.",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("olapdim_cache_misses_total",
		"Satisfiability calls and bottom-category walks that ran a DIMSAT search.",
		func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc("olapdim_cache_coalesced_total",
		"Cache hits that waited on an in-flight search (singleflight).",
		func() float64 { return float64(cache.Stats().Coalesced) })
	reg.CounterFunc("olapdim_cache_evictions_total",
		"Cache entries evicted by the size bound.",
		func() float64 { return float64(cache.Stats().Evictions) })
	reg.GaugeFunc("olapdim_cache_entries",
		"Satisfiability results and finished walks currently retained in the cache (in-flight searches excluded).",
		func() float64 { return float64(cache.Stats().Entries) })
	reg.CounterFunc("olapdim_cache_work_expansions_total",
		"Cumulative EXPAND steps of every computed (non-hit) cache run, walks included.",
		func() float64 { return float64(cache.Stats().Work.Expansions) })
	reg.CounterFunc("olapdim_cache_work_checks_total",
		"Cumulative CHECK steps of every computed (non-hit) cache run, walks included.",
		func() float64 { return float64(cache.Stats().Work.Checks) })
	reg.CounterFunc("olapdim_cache_work_dead_ends_total",
		"Cumulative pruning dead ends of every computed (non-hit) cache run, walks included.",
		func() float64 { return float64(cache.Stats().Work.DeadEnds) })

	cs := s.opts.Compiled
	reg.CounterFunc("olapdim_compiles_total",
		"Schema compilations charged to the hosted compiled schema: its compile plus one per derived schema (implication searches, job attempts, Lint and Explain probes).",
		func() float64 { return float64(cs.Stats().Compiles) })
	reg.CounterFunc("olapdim_compile_seconds_total",
		"Cumulative wall-clock seconds spent compiling schemas.",
		func() float64 { return cs.Stats().CompileSeconds })
	// Derived schemas are not cached, so the three compile_cache families
	// read 0; they stay only while perfbench still reads them.
	reg.CounterFunc("olapdim_compile_cache_hits_total",
		"Always 0: derived schemas are not cached (kept for benchmark readers).",
		func() float64 { return float64(cs.Stats().DeriveHits) })
	reg.CounterFunc("olapdim_compile_cache_misses_total",
		"Always 0: derived schemas are not cached (kept for benchmark readers).",
		func() float64 { return float64(cs.Stats().DeriveMisses) })
	reg.CounterFunc("olapdim_compile_cache_evictions_total",
		"Always 0: derived schemas are not cached (kept for benchmark readers).",
		func() float64 { return float64(cs.Stats().DeriveEvictions) })

	if store := s.jobs; store != nil {
		reg.CounterFunc("olapdim_jobs_submitted_total",
			"Durable jobs accepted (idempotent resubmits excluded).",
			func() float64 { return float64(store.Counters().Submitted) })
		reg.CounterFunc("olapdim_jobs_recovered_total",
			"Jobs re-queued from durable records at startup.",
			func() float64 { return float64(store.Counters().Recovered) })
		reg.CounterFunc("olapdim_jobs_resumed_total",
			"Job attempts resumed from a persisted search checkpoint.",
			func() float64 { return float64(store.Counters().Resumed) })
		reg.CounterFunc("olapdim_jobs_corrupt_snapshots_total",
			"Snapshot files refused for failing checksum or validation.",
			func() float64 { return float64(store.Counters().CorruptRejected) })
		reg.CounterFunc("olapdim_jobs_checkpoint_writes_total",
			"Durable search-checkpoint writes that reached disk.",
			func() float64 { return float64(store.Counters().CheckpointWrites) })
		reg.CounterFunc("olapdim_jobs_done_total",
			"Jobs that reached the done state.",
			func() float64 { return float64(store.Counters().Done) })
		reg.CounterFunc("olapdim_jobs_failed_total",
			"Jobs that reached the failed state.",
			func() float64 { return float64(store.Counters().Failed) })
		reg.CounterFunc("olapdim_jobs_cancelled_total",
			"Jobs cancelled before completing.",
			func() float64 { return float64(store.Counters().Cancelled) })
	}

	if inj := s.opts.Faults; inj != nil {
		reg.CounterVecFunc("olapdim_fault_injections_total",
			"Fault-injection rule activations, by injection site.", "site",
			func() map[string]float64 {
				out := map[string]float64{}
				for site, n := range inj.AllFired() {
					out[site] = float64(n)
				}
				return out
			})
	}
}
