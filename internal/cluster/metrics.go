package cluster

import (
	"time"

	"olapdim/internal/obs"
)

// clusterMetrics holds the coordinator's instruments. All families live
// under the olapdim_cluster_ prefix and follow the obs.Lint naming
// rules (cmd/metricslint verifies them in `make check`). Worker counts
// are registered as scrape-time functions over the health tracker in
// registerCollectors, mirroring the internal/server idiom.
type clusterMetrics struct {
	// requests are the families obs.RequestObserver counts and times
	// every coordinator request in.
	requests obs.RequestMetrics

	forwards    *obs.CounterVec // by worker
	forwardDur  *obs.Histogram
	failovers   *obs.Counter
	retries     *obs.Counter
	unroutable  *obs.Counter
	hedges      *obs.Counter
	hedgeWins   *obs.Counter
	probes      *obs.CounterVec // by outcome
	transitions *obs.CounterVec // by state entered
	reassigned  *obs.Counter
	mirrored    *obs.Counter

	breakerTransitions *obs.CounterVec // by state entered
	breakerSkipped     *obs.Counter
	retryExhausted     *obs.Counter

	federationScrapes *obs.CounterVec // by outcome
}

func newClusterMetrics(reg *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		requests: obs.RequestMetrics{
			Received: reg.Counter("olapdim_cluster_http_requests_received_total",
				"Requests the coordinator received, counted at arrival before routing."),
			Total: reg.CounterVec("olapdim_cluster_http_requests_total",
				"Requests the coordinator completed, by status class.", "code_class"),
			Duration: reg.HistogramVec("olapdim_cluster_http_request_duration_seconds",
				"Coordinator request wall-clock latency, by status class.", "code_class", obs.DurationBuckets()),
		},

		forwards: reg.CounterVec("olapdim_cluster_forwards_total",
			"Forward attempts sent to workers, by worker name.", "worker"),
		forwardDur: reg.Histogram("olapdim_cluster_forward_duration_seconds",
			"Latency of individual forward attempts to workers.", obs.DurationBuckets()),
		failovers: reg.Counter("olapdim_cluster_failovers_total",
			"Requests that failed over to a later ring candidate after the owner failed."),
		retries: reg.Counter("olapdim_cluster_retries_total",
			"Forward attempts beyond the first, across all candidates."),
		unroutable: reg.Counter("olapdim_cluster_unroutable_total",
			"Requests answered 503 because every candidate worker failed or none was healthy."),
		hedges: reg.Counter("olapdim_cluster_hedges_total",
			"Hedge requests launched against a second worker for straggling reads."),
		hedgeWins: reg.Counter("olapdim_cluster_hedge_wins_total",
			"Hedged reads where the hedge arm answered first with a usable response."),
		probes: reg.CounterVec("olapdim_cluster_probes_total",
			"Active /readyz probe results, by outcome (ok or fail).", "outcome"),
		transitions: reg.CounterVec("olapdim_cluster_worker_transitions_total",
			"Debounced worker health transitions, by state entered.", "state"),
		reassigned: reg.Counter("olapdim_cluster_jobs_reassigned_total",
			"Jobs re-enqueued on a surviving shard after their worker died or drained."),
		mirrored: reg.Counter("olapdim_cluster_checkpoints_mirrored_total",
			"Worker search checkpoints copied into the coordinator's job mirror."),

		breakerTransitions: reg.CounterVec("olapdim_cluster_breaker_transitions_total",
			"Per-worker circuit-breaker state transitions, by state entered.", "state"),
		breakerSkipped: reg.Counter("olapdim_cluster_breaker_skipped_total",
			"Forward candidates skipped without dialing because their breaker was open."),
		retryExhausted: reg.Counter("olapdim_cluster_retry_budget_exhausted_total",
			"Forward retries denied because the coordinator-wide retry budget for the window was spent."),

		federationScrapes: reg.CounterVec("olapdim_cluster_federation_scrapes_total",
			"Worker /metrics scrapes performed by the federation endpoint, by outcome (ok or fail).", "outcome"),
	}
}

// registerCollectors registers the scrape-time families reading
// coordinator-owned state: membership gauges and the fault injector's
// activation counts (when armed).
func (c *Coordinator) registerCollectors(reg *obs.Registry) {
	reg.GaugeFunc("olapdim_cluster_workers",
		"Workers configured in the cluster, in any health state.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.workers))
		})
	reg.GaugeFunc("olapdim_cluster_workers_healthy",
		"Workers currently up (debounced) and receiving new traffic.",
		func() float64 { return float64(c.health.countHealthy()) })
	reg.GaugeFunc("olapdim_cluster_jobs_tracked",
		"Jobs the coordinator is tracking across all workers and states.",
		func() float64 { return float64(c.jobs.count()) })
	reg.GaugeFunc("olapdim_cluster_uptime_seconds",
		"Seconds since the coordinator was constructed.",
		func() float64 { return time.Since(c.started).Seconds() })
	reg.GaugeFunc("olapdim_cluster_breaker_open",
		"Workers whose circuit breaker is currently open or half-open.",
		func() float64 { return float64(c.client.breaker.openCount()) })

	spans := c.spans
	reg.CounterFunc("olapdim_spans_recorded_total",
		"Distributed-trace spans recorded into the span store.",
		func() float64 { return float64(spans.Recorded()) })
	reg.CounterFunc("olapdim_spans_dropped_total",
		"Spans dropped by the span store's trace and size bounds.",
		func() float64 { return float64(spans.Dropped()) })

	if inj := c.cfg.Faults; inj != nil {
		reg.CounterVecFunc("olapdim_cluster_fault_injections_total",
			"Fault-injection rule activations in the coordinator, by injection site.", "site",
			func() map[string]float64 {
				out := map[string]float64{}
				for site, n := range inj.AllFired() {
					out[site] = float64(n)
				}
				return out
			})
	}
}
