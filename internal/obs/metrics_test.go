package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusExpositionGolden pins the text exposition format byte for
// byte: family and series ordering, HELP/TYPE comments, label rendering,
// cumulative histogram buckets with the +Inf catch-all, and integer
// formatting without a decimal point.
func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_ops_total", "Operations.").Add(3)
	reg.Gauge("test_depth", "Depth.").Set(-2)
	h := reg.Histogram("test_size_bytes", "Sizes.", []float64{1, 2.5})
	h.Observe(0.5)
	h.Observe(2.5)
	h.Observe(10)
	codes := reg.CounterVec("test_reqs_total", "Requests.", "code")
	codes.With("2xx").Add(2)
	codes.With("5xx").Inc()
	reg.GaugeFunc("test_temp", "Temp.", func() float64 { return 36.6 })

	var b strings.Builder
	reg.WritePrometheus(&b)
	want := `# HELP test_depth Depth.
# TYPE test_depth gauge
test_depth -2
# HELP test_ops_total Operations.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_reqs_total Requests.
# TYPE test_reqs_total counter
test_reqs_total{code="2xx"} 2
test_reqs_total{code="5xx"} 1
# HELP test_size_bytes Sizes.
# TYPE test_size_bytes histogram
test_size_bytes_bucket{le="1"} 1
test_size_bytes_bucket{le="2.5"} 2
test_size_bytes_bucket{le="+Inf"} 3
test_size_bytes_sum 13
test_size_bytes_count 3
# HELP test_temp Temp.
# TYPE test_temp gauge
test_temp 36.6
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive Prometheus bucket
// semantics: a sample equal to an upper bound lands in that bound's
// bucket, one just above spills to the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_h", "h", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.0001, 2, 4, 4.0001, 100} {
		h.Observe(v)
	}
	// Cumulative: le=1 gets {0,1}, le=2 adds {1.0001,2}, le=4 adds {4}.
	want := []uint64{2, 4, 5}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[le=%v] = %d, want %d", []float64{1, 2, 4}[i], got[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 0+1+1.0001+2+4+4.0001+100 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestGaugeAddReturnsNewValue(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_g", "g")
	if got := g.Add(3); got != 3 {
		t.Errorf("Add(3) = %d, want 3", got)
	}
	if got := g.Add(-1); got != 2 {
		t.Errorf("Add(-1) = %d, want 2", got)
	}
}

// TestCounterVecTotal checks a counter vector's per-label counts: Value
// reads one label's count, 0 for a label never counted, without
// creating its series.
func TestCounterVecTotal(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_v_total", "v", "k")
	v.With("a").Add(2)
	v.With("b").Add(5)
	if a, b, c := v.Value("a"), v.Value("b"), v.Value("c"); a != 2 || b != 5 || c != 0 {
		t.Errorf("Value(a), Value(b), Value(c) = %d, %d, %d, want 2, 5, 0", a, b, c)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	if strings.Contains(b.String(), `k="c"`) {
		t.Errorf("Value created a series:\n%s", b.String())
	}
}

// TestWriteJSONGolden pins the JSON view GET /stats serves for every
// family kind: a plain counter or gauge is its value, a labeled family
// an object keyed by label value (empty until a series exists), a
// collected family like the others, an info gauge its labels, and a
// histogram its count and sum, plus its quantiles once it has
// observations and its exemplar once it keeps one. Every observation
// falls in the first bucket, so each quantile is exactly q.
func TestWriteJSONGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_ops_total", "Operations.").Add(3)
	reg.Gauge("test_depth", "Depth.").Set(-2)
	h := reg.Histogram("test_size_bytes", "Sizes.", []float64{1, 2.5})
	h.Observe(0.25)
	h.ObserveWithExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")
	reg.Histogram("test_wait_seconds", "Waits.", []float64{1})
	reg.HistogramVec("test_latency_seconds", "Latency.", "code", []float64{1}).With("2xx").Observe(0.5)
	reg.CounterVec("test_reqs_total", "Requests.", "code").With("5xx").Inc()
	reg.CounterVec("test_idle_total", "Idle.", "code")
	reg.GaugeFunc("test_temp", "Temp.", func() float64 { return 36.6 })
	reg.CounterVecFunc("test_fired_total", "Fired.", "site", func() map[string]float64 {
		return map[string]float64{"core.expand": 2}
	})
	reg.Info("test_build_info", "Build.", map[string]string{"version": "v1.2.3", "revision": "abc123"})

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"test_build_info":{"revision":"abc123","version":"v1.2.3"},` +
		`"test_depth":-2,` +
		`"test_fired_total":{"core.expand":2},` +
		`"test_idle_total":{},` +
		`"test_latency_seconds":{"2xx":{"count":1,"sum":0.5,"p50":0.5,"p90":0.9,"p99":0.99,"p999":0.999}},` +
		`"test_ops_total":3,` +
		`"test_reqs_total":{"5xx":1},` +
		`"test_size_bytes":{"count":2,"sum":0.75,"p50":0.5,"p90":0.9,"p99":0.99,"p999":0.999,` +
		`"slowestExemplar":{"traceId":"4bf92f3577b34da6a3ce929d0e0e4736","value":0.5}},` +
		`"test_temp":36.6,` +
		`"test_wait_seconds":{"count":0,"sum":0}}` + "\n"
	if got := b.String(); got != want {
		t.Errorf("JSON view mismatch:\ngot:  %s\nwant: %s", got, want)
	}

	rec := httptest.NewRecorder()
	reg.ServeStats(rec, httptest.NewRequest("GET", "/stats", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Body.String() != want {
		t.Errorf("ServeStats = %q, %q", ct, rec.Body.String())
	}
}

func TestRegistryPanicsOnBadAndDuplicateNames(t *testing.T) {
	mustPanic := func(name string, f func(reg *Registry)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f(NewRegistry())
	}
	mustPanic("camelCase", func(reg *Registry) { reg.Counter("badName", "") })
	mustPanic("double underscore", func(reg *Registry) { reg.Counter("bad__name", "") })
	mustPanic("leading digit", func(reg *Registry) { reg.Gauge("9bad", "") })
	mustPanic("bad label", func(reg *Registry) { reg.CounterVec("ok_total", "", "BadLabel") })
	mustPanic("duplicate", func(reg *Registry) {
		reg.Counter("dup_total", "")
		reg.Gauge("dup_total", "")
	})
	mustPanic("non-ascending buckets", func(reg *Registry) {
		reg.Histogram("h", "", []float64{1, 1})
	})
}

func TestLint(t *testing.T) {
	cases := []struct {
		name, typ string
		ok        bool
	}{
		{"olapdim_cache_hits_total", TypeCounter, true},
		{"olapdim_cache_entries", TypeGauge, true},
		{"olapdim_request_duration_seconds", TypeHistogram, true},
		{"olapdim_search_expansions", TypeHistogram, true},
		{"olapdim_cache_hits", TypeCounter, false},            // counter without _total
		{"olapdim_cache_entries_total", TypeGauge, false},     // gauge with _total
		{"olapdim_request_duration_ms", TypeHistogram, false}, // time not in seconds
		{"olapdim_task_latency", TypeHistogram, false},        // time not in seconds
		{"olapdimCamel_total", TypeCounter, false},            // not snake_case
		{"dimsat_cache_hits_total", TypeCounter, false},       // outside the olapdim_ namespace
		{"olapdimx_cache_hits_total", TypeCounter, false},     // outside the olapdim_ namespace
		{"cache_hits_total", TypeCounter, false},              // no namespace
	}
	for _, c := range cases {
		err := Lint(c.name, c.typ)
		if c.ok && err != nil {
			t.Errorf("Lint(%q, %s) = %v, want nil", c.name, c.typ, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Lint(%q, %s) = nil, want error", c.name, c.typ)
		}
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_ops_total", "ops").Inc()
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_ops_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestHistogramQuantile checks the linear-interpolation estimate against
// distributions whose quantiles are known exactly: one observation per
// unit bucket makes every quantile land on a computable interpolated
// point.
func TestHistogramQuantile(t *testing.T) {
	// Bounds 1..10, one observation centered in each bucket: the
	// empirical CDF hits k/10 exactly at bound k, so the q-quantile
	// interpolates to 10q.
	h := newHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.1, 1}, {1, 10}, {0.25, 2.5}, {0.99, 9.9},
	} {
		if got := h.Quantile(c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// All mass in one bucket: every quantile interpolates within it.
	h2 := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h2.Observe(1.5)
	}
	if got := h2.Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("single-bucket Quantile(0.5) = %v, want within (1, 2]", got)
	}

	// Mass in the +Inf bucket clamps to the highest finite bound.
	h3 := newHistogram([]float64{1, 2})
	h3.Observe(100)
	if got := h3.Quantile(0.99); got != 2 {
		t.Errorf("+Inf Quantile(0.99) = %v, want 2", got)
	}

	// Empty histogram reports 0, never NaN (the value is JSON-encoded).
	h4 := newHistogram([]float64{1})
	if got := h4.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}

	// Out-of-range q clamps instead of extrapolating.
	if got := h.Quantile(2); got != 10 {
		t.Errorf("Quantile(2) = %v, want 10", got)
	}
	if got := h.Quantile(-1); got != 0 {
		t.Errorf("Quantile(-1) = %v, want 0", got)
	}
}

// TestHistogramQuantileSkewed checks interpolation on a skewed load-like
// distribution: 90 fast observations and 10 slow ones.
func TestHistogramQuantileSkewed(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.0005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // last finite bucket (0.1, 1]
	}
	// p50 (rank 50 of 100) is inside the first bucket.
	if got := h.Quantile(0.5); got <= 0 || got > 0.001 {
		t.Errorf("Quantile(0.5) = %v, want within (0, 0.001]", got)
	}
	// p99 (rank 99) is inside the (0.1, 1] bucket: 0.1 + 0.9*(9/10).
	want := 0.1 + 0.9*0.9
	if got := h.Quantile(0.99); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Quantile(0.99) = %v, want %v", got, want)
	}
}

// TestInfoGauge pins the constant info-gauge rendering: one series, all
// labels sorted, value 1.
func TestInfoGauge(t *testing.T) {
	reg := NewRegistry()
	reg.Info("olapdim_build_info", "Build metadata.", map[string]string{
		"version": "v1.2.3", "goversion": "go1.24", "revision": "abc123",
	})
	var b strings.Builder
	reg.WritePrometheus(&b)
	want := `# HELP olapdim_build_info Build metadata.
# TYPE olapdim_build_info gauge
olapdim_build_info{goversion="go1.24",revision="abc123",version="v1.2.3"} 1
`
	if got := b.String(); got != want {
		t.Errorf("info exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	fams := reg.Families()
	if len(fams) != 1 || fams[0].Label != "goversion,revision,version" {
		t.Errorf("Families() = %+v, want one family with the sorted label list", fams)
	}
	if err := Lint(fams[0].Name, fams[0].Type); err != nil {
		t.Errorf("Lint(build_info) = %v", err)
	}
}

func TestInfoGaugePanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for a bad label name")
		}
	}()
	NewRegistry().Info("test_info", "", map[string]string{"BadLabel": "x"})
}

// TestGetBuildInfo checks the degraded defaults: under go test there is
// no VCS stamp, but every field must still be non-empty so the metric
// labels are always present.
func TestGetBuildInfo(t *testing.T) {
	bi := GetBuildInfo()
	if bi.Version == "" || bi.GoVersion == "" || bi.Revision == "" {
		t.Errorf("GetBuildInfo has empty fields: %+v", bi)
	}
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want go toolchain string", bi.GoVersion)
	}
	labels := bi.Labels()
	for _, k := range []string{"version", "goversion", "revision"} {
		if labels[k] == "" {
			t.Errorf("Labels()[%q] empty", k)
		}
	}
}

// TestLatencyBuckets checks the layout is ascending and spans the
// claimed 100µs..~26s range.
func TestLatencyBuckets(t *testing.T) {
	b := LatencyBuckets()
	if b[0] != 0.0001 {
		t.Errorf("first bucket = %v, want 0.0001", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v", i, b)
		}
	}
	if last := b[len(b)-1]; last < 16 || last > 64 {
		t.Errorf("last bucket = %v, want tens of seconds", last)
	}
}

// TestRegistryConcurrent hammers every instrument kind from many
// goroutines while scrapes run — meaningful under -race (make check-race)
// and a sanity check that concurrent totals are not lost.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_c_total", "")
	g := reg.Gauge("test_g", "")
	h := reg.Histogram("test_h", "", DurationBuckets())
	v := reg.CounterVec("test_v_total", "", "k")
	hv := reg.HistogramVec("test_hv", "", "k", EffortBuckets())

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []string{"a", "b", "c"}[i%3]
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j) / 1000)
				v.With(key).Inc()
				hv.With(key).Observe(float64(j))
				if j%100 == 0 {
					var b strings.Builder
					reg.WritePrometheus(&b)
					reg.WriteJSON(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != goroutines*perG {
		t.Errorf("counter = %d, want %d", c.Value(), goroutines*perG)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if total := v.Value("a") + v.Value("b") + v.Value("c"); total != goroutines*perG {
		t.Errorf("vec total = %d, want %d", total, goroutines*perG)
	}
}
