package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"olapdim/internal/loadgen"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every workload reports with --trace 0, in
// report order. The names and units match BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every workload reports with --trace 1. The
// part of a name before the first dot is its layer.
var perLayer = []struct{ name, unit string }{
	{"parser.parse_ms", "ms"},
	{"compile.compile_ms", "ms"},
	{"compile.compiles", "count"},
	{"compile.derive_hits", "count"},
	{"compile.derive_misses", "count"},
	{"compile.derive_hit_ratio", "ratio"},
	{"compile.derive_evictions", "count"},
	{"core.expansions", "count"},
	{"core.checks", "count"},
	{"core.dead_ends", "count"},
	{"core.lint_ms", "ms"},
	{"core.matrix_ms", "ms"},
	{"core.explain_ms", "ms"},
	{"core.ns_per_expansion", "ns"},
	{"core.explain_probes", "count"},
	{"cache.hits_per_op", "count"},
	{"cache.misses", "count"},
	{"cache.warmup_misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.coalesced", "count"},
	{"pool.tasks", "count"},
	{"pool.task_ms", "ms"},
	{"pool.busy_ratio", "ratio"},
	{"server.request_ms", "ms"},
	{"server.outside_ms", "ms"},
	{"server.shed", "count"},
	{"server.timeouts", "count"},
	{"obs.spans_per_op", "count"},
	{"obs.spans_dropped", "count"},
	{"jobs.submitted", "count"},
	{"jobs.done", "count"},
	{"jobs.failed", "count"},
	{"jobs.checkpoint_writes", "count"},
	{"jobs.checkpoints_per_job", "count"},
	{"jobs.ack_p50_ms", "ms"},
	{"jobs.done_p50_ms", "ms"},
	{"cluster.forwards", "count"},
	{"cluster.forward_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.hedges", "count"},
	{"cluster.checkpoints_mirrored", "count"},
	{"self.sweep_ms", "ms"},
	{"self.parser_ms", "ms"},
	{"self.compile_ms", "ms"},
	{"self.lint_ms", "ms"},
	{"self.matrix_ms", "ms"},
	{"self.explain_ms", "ms"},
	{"self.explain_probe_ms", "ms"},
	{"self.pool_task_ms", "ms"},
	{"self.client_ms", "ms"},
	{"self.coordinator_ms", "ms"},
	{"self.forward_ms", "ms"},
	{"self.server_request_ms", "ms"},
	{"self.server_reason_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// layers collects the per-layer metrics of one run. A metric of a layer
// the workload loads that could not be measured — typically a /metrics
// family missing from the scrape — is recorded as absent and left out of
// the result, never reported as zero. A metric of a layer the workload
// does not load reads zero: that layer did no work.
type layers struct {
	m      map[string]float64
	absent []string
}

func newLayers() *layers { return &layers{m: map[string]float64{}} }

func (l *layers) set(name string, v float64) { l.m[name] = v }

func (l *layers) markAbsent(name, why string) {
	l.absent = append(l.absent, name+" ("+why+")")
}

// fromDelta sets name to a family's growth over the window times scale,
// marking it absent when the family is missing. It returns the raw
// delta and whether the family was present.
func (l *layers) fromDelta(name string, before, after scrape, family string, scale float64) (float64, bool) {
	v, ok := delta(before, after, family)
	if !ok {
		l.markAbsent(name, "no "+family+" family")
		return 0, false
	}
	l.set(name, v*scale)
	return v, true
}

// result resolves the collected metrics against the per-layer table for
// a workload loading the given layers. Every traced run measures its
// overhead; the self.* metrics are set by the workload whose spans name
// those layers and read zero elsewhere.
func (l *layers) result(loaded []string) map[string]metric {
	load := map[string]bool{"trace": true}
	for _, s := range loaded {
		load[s] = true
	}
	absent := map[string]bool{}
	for _, a := range l.absent {
		absent[strings.Fields(a)[0]] = true
	}
	out := map[string]metric{}
	for _, pl := range perLayer {
		v, set := l.m[pl.name]
		switch {
		case set:
			out[pl.name] = metric{v, pl.unit}
		case absent[pl.name]:
		case load[strings.SplitN(pl.name, ".", 2)[0]]:
			l.markAbsent(pl.name, "not measured")
		default:
			out[pl.name] = metric{0, pl.unit}
		}
	}
	sort.Strings(l.absent)
	return out
}

// scrape is one parsed GET /metrics exposition: family name to value,
// labeled series summed (see loadgen.ParseMetrics).
type scrape map[string]float64

// namespaces are the prefixes a family may carry. Today the server mixes
// dimsat_ and olapdim_ names; the planned rename moves everything under
// olapdim_. Looking a family up under either keeps the per-layer numbers
// working across that rename.
var namespaces = [...]string{"olapdim_", "dimsat_"}

// family returns the value of a family named without its prefix.
func (s scrape) family(name string) (float64, bool) {
	for _, p := range namespaces {
		if v, ok := s[p+name]; ok {
			return v, true
		}
	}
	return 0, false
}

// delta is a family's growth between two scrapes. A family missing from
// the before scrape counts from zero (a labeled series appears on first
// use); one missing from the after scrape is absent.
func delta(before, after scrape, name string) (float64, bool) {
	a, ok := after.family(name)
	if !ok {
		return 0, false
	}
	b, _ := before.family(name)
	return a - b, true
}

// scrapeMetrics fetches and parses base's GET /metrics.
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (scrape, error) {
	m, err := loadgen.Scrape(ctx, client, base)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return scrape(m), nil
}
