package loadgen

import (
	"strings"
	"testing"
)

const sampleExposition = `# HELP dimsat_cache_hits_total Satisfiability calls answered from the shared cache.
# TYPE dimsat_cache_hits_total counter
dimsat_cache_hits_total 12
# TYPE dimsat_http_requests_total counter
dimsat_http_requests_total{code_class="2xx"} 30
dimsat_http_requests_total{code_class="4xx"} 3
# TYPE dimsat_http_request_duration_seconds histogram
dimsat_http_request_duration_seconds_bucket{code_class="2xx",le="0.001"} 5
dimsat_http_request_duration_seconds_bucket{code_class="2xx",le="+Inf"} 30
dimsat_http_request_duration_seconds_sum{code_class="2xx"} 1.5
dimsat_http_request_duration_seconds_count{code_class="2xx"} 30
# TYPE dimsat_cache_entries gauge
dimsat_cache_entries 7
# TYPE olapdim_build_info gauge
olapdim_build_info{goversion="go1.24",revision="abc",version="(devel)"} 1
garbage line without a value x
`

func TestParseMetrics(t *testing.T) {
	m, err := ParseMetrics(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]float64{
		"dimsat_cache_hits_total":                    12,
		"dimsat_http_requests_total":                 33, // label series summed
		"dimsat_http_request_duration_seconds_sum":   1.5,
		"dimsat_http_request_duration_seconds_count": 30,
		"dimsat_cache_entries":                       7,
		"olapdim_build_info":                         1,
	}
	for name, want := range cases {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, ok := m["dimsat_http_request_duration_seconds_bucket"]; ok {
		t.Error("histogram _bucket series were not dropped")
	}
}
