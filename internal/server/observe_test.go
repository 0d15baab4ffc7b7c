package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"olapdim/internal/core"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
)

// scrapeMetrics fetches /metrics and parses the exposition into a
// series -> value map keyed by "name" or `name{label="v"}`.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestObservabilityEndToEnd is the acceptance path of the observability
// work: a Figure-7-style DIMSAT search runs through the HTTP server with
// a slow-search threshold armed, and the same request is then visible in
// all three observability surfaces — the scraped /metrics registry, the
// request's spans at /debug/spans/{traceID} (the server.reason span
// carrying the schema and the search effort), and the structured
// request/slow-search log.
func TestObservabilityEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	s, err := NewWithConfig(paper.LocationSch(), Config{
		SlowSearchExpansions: 1,
		Log:                  &logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/sat?category=Store")
	if err != nil {
		t.Fatal(err)
	}
	var sat struct {
		Satisfiable bool `json:"satisfiable"`
		Expansions  int  `json:"expansions"`
		Checks      int  `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !sat.Satisfiable {
		t.Fatalf("GET /sat: status %d, satisfiable %v", resp.StatusCode, sat.Satisfiable)
	}
	if sat.Expansions == 0 {
		t.Fatal("search reported zero expansions")
	}
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("response carries no X-Request-ID")
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("response carries no X-Trace-ID")
	}

	// The trace list knows the request's trace.
	var list struct {
		TraceIDs []string `json:"traceIds"`
	}
	if code := get(t, ts, "/debug/spans", &list); code != http.StatusOK {
		t.Fatalf("GET /debug/spans: %d", code)
	}
	if !slices.Contains(list.TraceIDs, traceID) {
		t.Fatalf("span trace list %v does not contain %s", list.TraceIDs, traceID)
	}

	// The request's spans describe the search: server.request names the
	// request ID, and server.reason carries the endpoint, the argument,
	// the schema fingerprint and the effort the response reported.
	var tr struct {
		Spans []obs.Span `json:"spans"`
	}
	if code := get(t, ts, "/debug/spans/"+traceID, &tr); code != http.StatusOK {
		t.Fatalf("GET /debug/spans/%s: %d", traceID, code)
	}
	spans := map[string]obs.Span{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = sp
	}
	if got := spans["server.request"].Attrs["requestId"]; got != reqID {
		t.Errorf("server.request requestId = %q, want %q", got, reqID)
	}
	reason, ok := spans["server.reason"]
	if !ok {
		t.Fatalf("trace %s has no server.reason span: %+v", traceID, tr.Spans)
	}
	want := map[string]string{
		"endpoint":   "/sat",
		"detail":     "category=Store",
		"schema":     core.Fingerprint(paper.LocationSch()),
		"expansions": strconv.Itoa(sat.Expansions),
		"checks":     strconv.Itoa(sat.Checks),
	}
	for k, v := range want {
		if reason.Attrs[k] != v {
			t.Errorf("server.reason %s = %q, want %q", k, reason.Attrs[k], v)
		}
	}
	if _, ok := reason.Attrs["deadEnds"]; !ok {
		t.Error("server.reason carries no deadEnds")
	}
	if reason.ParentID != spans["server.request"].SpanID {
		t.Errorf("server.reason parented to %q, want server.request %q", reason.ParentID, spans["server.request"].SpanID)
	}

	// An unknown trace ID is a 404.
	if code := get(t, ts, "/debug/spans/"+obs.NewTraceID(), nil); code != http.StatusNotFound {
		t.Errorf("unknown trace id: %d, want 404", code)
	}

	// The structured log carries a request line and a slow_search line,
	// both tagged with the request ID.
	events := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		if rec["requestId"] == reqID {
			events[rec["event"].(string)] = rec
		}
	}
	slow, ok := events["slow_search"]
	if !ok {
		t.Fatalf("no slow_search log line for %s; log:\n%s", reqID, logBuf.String())
	}
	if slow["schema"] != core.Fingerprint(paper.LocationSch()) {
		t.Errorf("slow_search schema = %v", slow["schema"])
	}
	if int(slow["expansions"].(float64)) != sat.Expansions {
		t.Errorf("slow_search expansions = %v, want %d", slow["expansions"], sat.Expansions)
	}
	reqLine, ok := events["request"]
	if !ok {
		t.Fatalf("no request log line for %s", reqID)
	}
	if reqLine["path"] != "/sat" || reqLine["status"] != float64(200) {
		t.Errorf("request log line = %v", reqLine)
	}

	// The scraped registry saw the same request.
	m := scrapeMetrics(t, ts)
	if m[`olapdim_http_requests_total{code_class="2xx"}`] < 3 {
		t.Errorf("2xx requests = %v, want >= 3", m[`olapdim_http_requests_total{code_class="2xx"}`])
	}
	if m["olapdim_http_requests_received_total"] < 3 {
		t.Errorf("received = %v", m["olapdim_http_requests_received_total"])
	}
	if m["olapdim_search_expansions_count"] != 1 {
		t.Errorf("search effort observations = %v, want 1", m["olapdim_search_expansions_count"])
	}
	if m["olapdim_search_expansions_sum"] != float64(sat.Expansions) {
		t.Errorf("search expansions sum = %v, want %d", m["olapdim_search_expansions_sum"], sat.Expansions)
	}
	if m["olapdim_slow_searches_total"] != 1 {
		t.Errorf("slow searches = %v, want 1", m["olapdim_slow_searches_total"])
	}
	if m[`olapdim_http_request_duration_seconds_bucket{code_class="2xx",le="+Inf"}`] < 1 {
		t.Error("no duration histogram samples")
	}
	if m["olapdim_uptime_seconds"] < 0 {
		t.Errorf("uptime = %v", m["olapdim_uptime_seconds"])
	}
}

// TestCacheHitMetricsZeroEffort pins satellite behavior: a cached /sat
// answer counts a cache hit in the registry but contributes zero search
// effort — the expansions histogram gains an observation of 0.
func TestCacheHitMetricsZeroEffort(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if code := get(t, ts, "/sat?category=Store", nil); code != http.StatusOK {
			t.Fatalf("GET /sat #%d: %d", i+1, code)
		}
	}
	m := scrapeMetrics(t, ts)
	if m["olapdim_cache_misses_total"] != 1 || m["olapdim_cache_hits_total"] != 1 {
		t.Errorf("cache misses/hits = %v/%v, want 1/1",
			m["olapdim_cache_misses_total"], m["olapdim_cache_hits_total"])
	}
	// Two requests, two effort observations; the hit observed zero, so the
	// sum equals the single computing run's work, which the cumulative
	// work counter also carries.
	if m["olapdim_search_expansions_count"] != 2 {
		t.Errorf("effort observations = %v, want 2", m["olapdim_search_expansions_count"])
	}
	if m["olapdim_search_expansions_sum"] != m["olapdim_cache_work_expansions_total"] {
		t.Errorf("per-request sum %v != cache cumulative work %v",
			m["olapdim_search_expansions_sum"], m["olapdim_cache_work_expansions_total"])
	}
	if m["olapdim_search_expansions_sum"] <= 0 {
		t.Errorf("expansions sum = %v, want > 0", m["olapdim_search_expansions_sum"])
	}

	// X-Request-IDs are unique per request.
	a, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	a.Body.Close()
	b, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b.Body.Close()
	ida, idb := a.Header.Get("X-Request-ID"), b.Header.Get("X-Request-ID")
	if ida == "" || ida == idb {
		t.Errorf("request IDs not unique: %q, %q", ida, idb)
	}
}

// TestSearchEffortEqualsCacheWork pins the effort equation of the
// served reads that answer through the SatCache: on a fresh server,
// after /sat, /categories, POST /implies, POST /summarizable, /matrix and
// /sources, each twice, the per-request effort histograms sum to exactly
// the cache's cumulative work, walks included. The searches that bypass
// the cache (/explain's provenance run, /frozen, traced runs and jobs)
// are not served here.
func TestSearchEffortEqualsCacheWork(t *testing.T) {
	ts := testServer(t)
	requests := []struct{ method, path, body string }{
		{"GET", "/sat?category=Store", ""},
		{"GET", "/categories", ""},
		{"POST", "/implies", `{"constraint": "Store.Country"}`},
		{"POST", "/summarizable", `{"target": "Country", "from": ["City"]}`},
		{"GET", "/matrix", ""},
		{"GET", "/sources?target=Country&max=2", ""},
	}
	for _, rq := range requests {
		for i := 0; i < 2; i++ {
			req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(rq.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s #%d: %d", rq.method, rq.path, i+1, resp.StatusCode)
			}
		}
	}
	m := scrapeMetrics(t, ts)
	for sum, work := range map[string]string{
		"olapdim_search_expansions_sum": "olapdim_cache_work_expansions_total",
		"olapdim_search_checks_sum":     "olapdim_cache_work_checks_total",
		"olapdim_search_backtracks_sum": "olapdim_cache_work_dead_ends_total",
	} {
		if m[sum] != m[work] {
			t.Errorf("%s = %v, %s = %v; want equal", sum, m[sum], work, m[work])
		}
	}
	if m["olapdim_search_expansions_sum"] == 0 {
		t.Error("the requests ran no search")
	}
}

// TestEffortAndFailureFamiliesExported requires, after a /sat and a
// /sources request, the families that count search effort and request
// failures: the cache-work counters, shed and timed-out requests,
// contained panics and pool task errors. A run that never sheds must
// read a zero, not lose the family.
func TestEffortAndFailureFamiliesExported(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/sat?category=Store", "/sources?target=Country&max=1"} {
		if code := get(t, ts, path, nil); code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, code)
		}
	}
	m := scrapeMetrics(t, ts)
	for _, family := range []string{
		"olapdim_cache_work_expansions_total",
		"olapdim_cache_work_checks_total",
		"olapdim_cache_work_dead_ends_total",
		"olapdim_http_shed_total",
		"olapdim_http_request_timeouts_total",
		"olapdim_contained_panics_total",
		"olapdim_pool_task_errors_total",
	} {
		if _, ok := m[family]; !ok {
			t.Errorf("GET /metrics has no %s", family)
		}
	}
}

// TestTraceSampling checks SpanSample=2: of four requests arriving
// without a traceparent, the first and third start sampled traces whose
// spans land in /debug/spans and the second and fourth do not, while
// all four still carry an X-Request-ID and an X-Trace-ID.
func TestTraceSampling(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{SpanSample: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var traceIDs []string
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/sat?category=Store")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("X-Request-ID") == "" {
			t.Errorf("request %d carries no X-Request-ID", i+1)
		}
		traceIDs = append(traceIDs, resp.Header.Get("X-Trace-ID"))
	}
	var list struct {
		TraceIDs []string `json:"traceIds"`
	}
	if code := get(t, ts, "/debug/spans", &list); code != http.StatusOK {
		t.Fatalf("GET /debug/spans: %d", code)
	}
	for i, id := range traceIDs {
		if id == "" {
			t.Errorf("request %d carries no X-Trace-ID", i+1)
		}
		if got, want := slices.Contains(list.TraceIDs, id), i%2 == 0; got != want {
			t.Errorf("request %d: trace %s recorded = %v, want %v (retained %v)", i+1, id, got, want, list.TraceIDs)
		}
	}
}

// TestObservationDoesNotChangeWork pins the rule that observing a
// request must not change the work it does. Two fresh servers, one
// sampling every trace and one sampling none, serve the same requests,
// each twice; they must answer the same bodies and count the same cache,
// search and pool work.
func TestObservationDoesNotChangeWork(t *testing.T) {
	requests := []struct{ method, path, body string }{
		{"GET", "/sat?category=Store", ""},
		{"GET", "/categories", ""},
		{"GET", "/frozen?root=Store", ""},
		{"GET", "/matrix", ""},
		{"GET", "/sources?target=Country&max=2", ""},
		{"GET", "/explain?category=Store", ""},
		{"POST", "/implies", `{"constraint": "Store.Country"}`},
		{"POST", "/summarizable", `{"target": "Country", "from": ["City"]}`},
	}
	families := []string{
		"olapdim_cache_hits_total",
		"olapdim_cache_misses_total",
		"olapdim_search_expansions_sum",
		"olapdim_search_checks_sum",
		"olapdim_search_backtracks_sum",
		"olapdim_pool_tasks_total",
	}
	serve := func(sample int) (bodies []string, work map[string]float64, spans int) {
		t.Helper()
		store := obs.NewSpanStore(0, "test")
		s, err := NewWithConfig(paper.LocationSch(), Config{Spans: store, SpanSample: sample})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		before := scrapeMetrics(t, ts)
		for _, rq := range requests {
			for i := 0; i < 2; i++ {
				req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(rq.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s: %d %s", rq.method, rq.path, resp.StatusCode, b)
				}
				bodies = append(bodies, rq.method+" "+rq.path+" "+string(b))
			}
		}
		after := scrapeMetrics(t, ts)
		work = map[string]float64{}
		for _, f := range families {
			work[f] = after[f] - before[f]
		}
		return bodies, work, store.Len()
	}
	sampledBodies, sampledWork, sampledSpans := serve(1)
	bodies, work, spans := serve(-1)
	if sampledSpans == 0 || spans != 0 {
		t.Fatalf("recorded spans: %d sampled, %d unsampled; want some and none", sampledSpans, spans)
	}
	for i := range bodies {
		if sampledBodies[i] != bodies[i] {
			t.Errorf("sampled answer differs:\n%s\nunsampled:\n%s", sampledBodies[i], bodies[i])
		}
	}
	for _, f := range families {
		if sampledWork[f] != work[f] {
			t.Errorf("%s grew by %v sampled, %v unsampled", f, sampledWork[f], work[f])
		}
	}
	if work["olapdim_search_expansions_sum"] == 0 || work["olapdim_cache_hits_total"] == 0 {
		t.Errorf("work %v: the requests ran no search or hit no cache entry", work)
	}
}
