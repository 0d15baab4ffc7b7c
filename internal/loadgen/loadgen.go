// Package loadgen is the performance-measurement harness of the
// dimension-constraint service: a deterministic, seeded load generator
// that drives a dimsatd server over HTTP and emits a schema-versioned
// BENCH_*.json run record. The benchmark (perfbench/, its own module)
// drives its HTTP workloads with the same Planner and Runner.
//
// The pieces compose into a closed measurement loop:
//
//   - Planner (plan.go) turns one seed into an infinite, reproducible
//     request stream over a schema family from internal/gen: the same
//     seed always yields byte-identical requests, so two runs differ
//     only in the code under test.
//   - Runner (run.go) executes the stream against a live server in
//     open-loop mode (fixed arrival rate with latencies measured from
//     the *scheduled* send time, so a stalled server cannot hide behind
//     coordinated omission) or closed-loop mode (fixed concurrency),
//     capturing per-endpoint latency histograms after a warmup.
//   - Scrape (scrape.go) reads GET /metrics before and after the run
//     and keeps the counter deltas, so client-observed latency and the
//     server's paper-level search effort (EXPAND steps, prunes, cache
//     hits, shed requests, checkpoint writes) land in one record.
//   - Report (report.go) is the BENCH_*.json schema, the record
//     `make bench-load` and `make bench-cluster` write.
//
// See docs/BENCHMARKING.md for the workload mixes and for the
// `make check` performance gate.
package loadgen

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"olapdim/internal/gen"
)

// Workload operation names, usable as keys in Spec.Mix.
const (
	// OpSat issues GET /sat for a random category (Theorem 4 DIMSAT).
	OpSat = "sat"
	// OpCategories issues GET /categories (a full satisfiability sweep).
	OpCategories = "categories"
	// OpImplies posts a constraint-implication query, drawn half from
	// the schema's own Σ (implied) and half synthesized from edges.
	OpImplies = "implies"
	// OpSummarizable posts a summarizability query for a random target
	// and a small source set drawn from categories below it.
	OpSummarizable = "summarizable"
	// OpSources issues GET /sources, the minimal-source-set enumeration.
	OpSources = "sources"
	// OpMatrix issues GET /matrix, the full single-source matrix.
	OpMatrix = "matrix"
	// OpJobs submits a durable job (POST /jobs) and polls it to a
	// terminal state; the recorded latency spans submit to completion.
	OpJobs = "jobs"
	// OpExplain issues GET /explain for a random category: the verdict
	// plus touched-set provenance and, on UNSAT, the shrink-probe loop
	// that extracts the minimal unsat core.
	OpExplain = "explain"
)

// Ops lists every operation in canonical order.
func Ops() []string {
	return []string{OpSat, OpCategories, OpImplies, OpSummarizable, OpSources, OpMatrix, OpJobs, OpExplain}
}

// Spec parameterizes one load-generation run. The zero value is not
// runnable; use Defaults (or fill the fields) and validate via
// NewPlanner.
type Spec struct {
	// Seed drives all randomness: the schema family (its Seed field is
	// overwritten with this one) and the request sampling. Two runs with
	// equal Seed and workload parameters issue byte-identical request
	// streams.
	Seed int64
	// Schema is the generated schema family driven by internal/gen when
	// SchemaText is empty; Schema.Seed is ignored in favor of Seed.
	Schema gen.SchemaSpec
	// SchemaText, when non-empty, is a schema in .dims syntax used
	// instead of a generated one — it must match the schema the target
	// server hosts or most requests will answer 400.
	SchemaText string
	// Mix assigns an integer weight to each operation; nil means
	// DefaultMix. Operations with weight 0 are never issued.
	Mix map[string]int
	// Rate, when positive, selects open-loop mode: requests are
	// scheduled at this fixed arrival rate (per second) and latency is
	// measured from the scheduled time. Zero selects closed-loop mode.
	Rate float64
	// Concurrency is the worker count in closed-loop mode and the cap on
	// in-flight requests in open-loop mode. Zero means 8 (closed) or 256
	// (open — a tight cap would block the arrival schedule and
	// reintroduce coordinated omission).
	Concurrency int
	// Duration bounds the request-issuing phase. Zero means 10s.
	Duration time.Duration
	// Warmup discards samples scheduled before this offset from the
	// start, so connection setup and cold caches do not pollute the
	// percentiles. Zero means no warmup.
	Warmup time.Duration
	// MaxRequests, when positive, additionally bounds the number of
	// issued requests.
	MaxRequests int
	// SourcesMax is the max source-set size passed to GET /sources.
	// Zero means 2.
	SourcesMax int
	// JobPollInterval is the poll cadence for OpJobs. Zero means 20ms.
	JobPollInterval time.Duration
}

// Defaults returns a runnable spec: the e1-family schema at N=12
// categories, the default mix, closed loop at concurrency 8 for 10s.
func Defaults() Spec {
	return Spec{
		Schema: gen.SchemaSpec{
			Categories:    12,
			Levels:        4,
			ExtraEdgeProb: 0.3,
			ChoiceProb:    0.4,
			Constants:     2,
			CondProb:      0.3,
			IntoFrac:      0.5,
		},
	}
}

// DefaultMix is the standard workload blend: satisfiability-heavy with
// implication and summarizability alongside, a trickle of
// minimal-sources enumerations, explain requests and durable jobs, no
// full matrices.
func DefaultMix() map[string]int {
	return map[string]int{
		OpSat:          8,
		OpImplies:      5,
		OpSummarizable: 4,
		OpSources:      2,
		OpExplain:      1,
		OpJobs:         1,
	}
}

// withDefaults resolves the zero values documented on Spec.
func (s Spec) withDefaults() Spec {
	if s.Mix == nil {
		s.Mix = DefaultMix()
	}
	if s.Concurrency <= 0 {
		if s.Rate > 0 {
			s.Concurrency = 256
		} else {
			s.Concurrency = 8
		}
	}
	if s.Duration <= 0 {
		s.Duration = 10 * time.Second
	}
	if s.SourcesMax <= 0 {
		s.SourcesMax = 2
	}
	if s.JobPollInterval <= 0 {
		s.JobPollInterval = 20 * time.Millisecond
	}
	return s
}

// Mode names the loop discipline of a spec.
func (s Spec) Mode() string {
	if s.Rate > 0 {
		return "open"
	}
	return "closed"
}

// ParseMix parses "sat=8,implies=5,jobs=1" into a mix map, rejecting
// unknown operations and non-positive weights.
func ParseMix(src string) (map[string]int, error) {
	known := map[string]bool{}
	for _, op := range Ops() {
		known[op] = true
	}
	out := map[string]int{}
	for _, part := range strings.Split(src, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: mix entry %q is not op=weight", part)
		}
		if !known[op] {
			return nil, fmt.Errorf("loadgen: unknown operation %q (want one of %s)", op, strings.Join(Ops(), ", "))
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: weight for %q must be a non-negative integer, got %q", op, val)
		}
		out[op] = w
	}
	total := 0
	for _, w := range out {
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: mix %q has no positive weights", src)
	}
	return out, nil
}

// FormatMix renders a mix in the ParseMix syntax with operations in
// canonical order, for echoing into reports and logs.
func FormatMix(mix map[string]int) string {
	var parts []string
	for _, op := range Ops() {
		if w := mix[op]; w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", op, w))
		}
	}
	// Defensive: include any non-canonical keys deterministically.
	var rest []string
	for op, w := range mix {
		found := false
		for _, k := range Ops() {
			if op == k {
				found = true
			}
		}
		if !found && w > 0 {
			rest = append(rest, fmt.Sprintf("%s=%d", op, w))
		}
	}
	sort.Strings(rest)
	return strings.Join(append(parts, rest...), ",")
}
