package loadgen

import (
	"encoding/json"
	"fmt"
	"os"

	"olapdim/internal/gen"
	"olapdim/internal/obs"
)

// ReportSchemaVersion is the BENCH_*.json schema version; bump it on any
// incompatible change, so records of different formats are never read
// as one.
const ReportSchemaVersion = 1

// Report is one load-generation run: the full workload specification
// (enough to reproduce the run), the client-observed latency percentiles
// per endpoint, and the server-side counter deltas scraped from
// GET /metrics around the run. `make bench-load` and `make bench-cluster`
// write one; the committed BENCH_cluster*.json records are E14's.
type Report struct {
	// SchemaVersion is ReportSchemaVersion at encode time.
	SchemaVersion int `json:"schemaVersion"`
	// Tool identifies the producer ("dimsatload").
	Tool string `json:"tool"`
	// StartedAt is the run start in RFC 3339 UTC.
	StartedAt string `json:"startedAt"`
	// Build stamps the client binary's build metadata — the same fields
	// the server exports as olapdim_build_info.
	Build obs.BuildInfo `json:"build"`
	// Machine describes the host the client ran on.
	Machine Machine `json:"machine"`
	// Seed is the determinism seed; equal seed and workload means an
	// identical request stream.
	Seed int64 `json:"seed"`
	// Workload echoes the resolved run parameters.
	Workload Workload `json:"workload"`

	// DurationSeconds is the measured wall time of the issuing phase
	// (including warmup, excluding the final drain).
	DurationSeconds float64 `json:"durationSeconds"`
	// Requests counts measured (post-warmup) requests; WarmupRequests
	// counts the discarded ones.
	Requests       int64 `json:"requests"`
	WarmupRequests int64 `json:"warmupRequests"`
	// Errors counts measured requests that failed: transport errors and
	// any status outside 2xx except 429. Shed counts 429 responses.
	Errors          int64 `json:"errors"`
	TransportErrors int64 `json:"transportErrors"`
	Shed            int64 `json:"shed"`
	// ThroughputRPS is measured requests per post-warmup second.
	ThroughputRPS float64 `json:"throughputRps"`

	// Endpoints maps each operation to its client-observed statistics.
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// Server holds the GET /metrics counter deltas (family name →
	// after−before) covering the whole run including warmup: search
	// effort, cache traffic, shed/timeout counts, job checkpoint writes.
	// The search effort is olapdim_search_{expansions,checks,backtracks}_sum,
	// which count every search a reasoning request ran (cache hits at
	// zero); olapdim_cache_work_*_total count only the cached searches
	// that missed, so they leave out the /matrix and /sources walks.
	// Records written before the families moved to the olapdim_
	// namespace carry the same names under dimsat_.
	Server map[string]float64 `json:"server"`
	// Cluster is populated when the target is a cluster coordinator
	// (GET /cluster answered): per-worker forward deltas over the run,
	// so a BENCH record shows how the key space balanced across shards.
	// Additive and optional, so schema version 1 is unchanged.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats summarizes shard balance for a coordinator-target run.
type ClusterStats struct {
	// Workers counts configured workers; Healthy is the count at run end.
	Workers int `json:"workers"`
	Healthy int `json:"healthy"`
	// Forwards maps worker name → forward attempts the coordinator sent
	// it during the run (after−before deltas of GET /cluster).
	Forwards map[string]int64 `json:"forwards"`
}

// Machine describes the client host, for reading run files across
// machines.
type Machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCpu"`
	GoMaxProcs int    `json:"goMaxProcs"`
	Hostname   string `json:"hostname,omitempty"`
}

// Workload echoes the resolved spec of a run.
type Workload struct {
	// Mode is "open" (fixed rate) or "closed" (fixed concurrency).
	Mode string `json:"mode"`
	// Target is the base URL that was driven.
	Target string `json:"target"`
	// Mix is the operation blend in ParseMix syntax.
	Mix string `json:"mix"`
	// Rate is the open-loop arrival rate (requests/second), 0 in closed
	// loop.
	Rate float64 `json:"rate,omitempty"`
	// Concurrency is the closed-loop worker count / open-loop in-flight cap.
	Concurrency int `json:"concurrency"`
	// DurationSeconds and WarmupSeconds echo the configured phases.
	DurationSeconds float64 `json:"durationSeconds"`
	WarmupSeconds   float64 `json:"warmupSeconds,omitempty"`
	// Schema is the generated schema family (with the run seed threaded
	// in); absent when the run drove an explicit schema file.
	Schema *gen.SchemaSpec `json:"schema,omitempty"`
	// SchemaSource notes where an explicit schema came from.
	SchemaSource string `json:"schemaSource,omitempty"`
	// SourcesMax is the max source-set size for OpSources requests.
	SourcesMax int `json:"sourcesMax,omitempty"`
}

// EndpointStats is the client-observed summary for one operation.
// Latencies are in milliseconds; percentiles are interpolated from a
// fixed-bucket histogram (obs.Histogram.Quantile over
// obs.LatencyBuckets), so p999 carries bucket-resolution error.
type EndpointStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors,omitempty"`
	Shed   int64   `json:"shed,omitempty"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	MaxMs  float64 `json:"maxMs"`
	// SlowestTraceID is the distributed-trace ID (X-Trace-ID response
	// header) of the slowest measured request, when the server sent one —
	// the exemplar link from a BENCH record's worst latency to the
	// server-side trace that explains it. Additive field: schema version
	// unchanged, absent when tracing is off.
	SlowestTraceID string `json:"slowestTraceId,omitempty"`
}

// Encode renders the report as indented JSON with a trailing newline —
// the canonical BENCH_*.json bytes (fixed field order, so committed
// records diff cleanly).
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: encoding report: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile writes the canonical encoding to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
