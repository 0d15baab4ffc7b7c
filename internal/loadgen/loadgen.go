// Package loadgen drives a dimsatd server or a cluster coordinator over
// HTTP with a deterministic, seeded request stream. The benchmark
// (perfbench/, its own module) plans its HTTP workloads with the
// Planner and warms a served cache with the Runner, and cmd/dimsatload,
// the smoke scripts' load source, runs the same Runner against a URL.
//
//   - Planner (plan.go) turns one seed into an infinite, reproducible
//     request stream over a schema family from internal/gen: the same
//     seed always yields byte-identical requests, so two runs differ
//     only in the code under test.
//   - Runner (run.go) sends the stream in a closed loop (a fixed number
//     of workers, each waiting for its reply) and counts the requests
//     that failed, were shed or never reached the server.
//   - Scrape (scrape.go) reads a node's GET /metrics into one value per
//     family, for perfbench's per-layer counters.
package loadgen

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"olapdim/internal/gen"
)

// Workload operation names, usable as keys in Spec.Mix. Every operation
// but OpJobs is the read of internal/api's table with that name, issued
// with arguments the planner draws: a random category (sat, explain), a
// constraint drawn half from the schema's own Σ (implied) and half
// synthesized from its edges (implies), a random target (sources) and
// one or two categories below it (summarizable). OpJobs submits a durable
// job (POST /jobs) and polls it to a terminal state; it fails unless the
// job ends done.
const (
	OpSat          = "sat"
	OpCategories   = "categories"
	OpImplies      = "implies"
	OpSummarizable = "summarizable"
	OpSources      = "sources"
	OpMatrix       = "matrix"
	OpJobs         = "jobs"
	OpExplain      = "explain"
)

// Ops lists every operation in canonical order.
func Ops() []string {
	return []string{OpSat, OpCategories, OpImplies, OpSummarizable, OpSources, OpMatrix, OpJobs, OpExplain}
}

// Spec parameterizes one run. The zero value is not runnable; use
// Defaults (or fill the fields) and validate via NewPlanner.
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
	// Concurrency is the number of closed-loop workers. Zero means 8.
	Concurrency int
	// Duration bounds the request-issuing phase. Zero means 10s.
	Duration time.Duration
	// MaxRequests, when positive, additionally bounds the number of
	// issued requests.
	MaxRequests int
}

// Defaults returns a runnable spec: the e1-family schema at N=12
// categories, the default mix, 8 workers for 10s.
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
		s.Concurrency = 8
	}
	if s.Duration <= 0 {
		s.Duration = 10 * time.Second
	}
	return s
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
