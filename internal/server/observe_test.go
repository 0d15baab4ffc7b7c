package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
// tracing and a slow-search threshold armed, and the same request is then
// visible in all three observability surfaces — the scraped /metrics
// registry, the fetched /debug/traces/{id} trace with its EXPAND/CHECK
// sequence, and the structured request/slow-search log.
func TestObservabilityEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	s, err := NewWithConfig(paper.LocationSch(), Config{
		TraceEvery:           1,
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

	// The trace list knows the request.
	var list struct {
		Capacity int      `json:"capacity"`
		Count    int      `json:"count"`
		IDs      []string `json:"ids"`
	}
	if code := get(t, ts, "/debug/traces", &list); code != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d", code)
	}
	if list.Capacity != defaultTraceRing || list.Count < 1 {
		t.Errorf("trace list = %+v", list)
	}
	found := false
	for _, id := range list.IDs {
		found = found || id == reqID
	}
	if !found {
		t.Fatalf("trace list %v does not contain %s", list.IDs, reqID)
	}

	// The fetched trace reconstructs the search: the EXPAND/CHECK event
	// sequence, the effort totals matching the response stats, the schema
	// fingerprint, and the slow flag (threshold 1 makes any search slow).
	var tr obs.Trace
	if code := get(t, ts, "/debug/traces/"+reqID, &tr); code != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: %d", reqID, code)
	}
	if tr.ID != reqID || tr.Endpoint != "/sat" || tr.Detail != "category=Store" {
		t.Errorf("trace header = %+v", tr)
	}
	if tr.Schema != core.Fingerprint(paper.LocationSch()) {
		t.Errorf("trace schema fingerprint = %q", tr.Schema)
	}
	if tr.Expansions != sat.Expansions || tr.Checks != sat.Checks {
		t.Errorf("trace effort %d/%d != response stats %d/%d",
			tr.Expansions, tr.Checks, sat.Expansions, sat.Checks)
	}
	if !tr.Slow {
		t.Error("trace not marked slow despite threshold 1")
	}
	var expands, checks int
	for i, e := range tr.Events {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		switch e.Kind {
		case "expand":
			expands++
			if e.Category == "" {
				t.Errorf("expand event %d without category", i)
			}
		case "check":
			checks++
		case "prune":
		default:
			t.Fatalf("unknown event kind %q", e.Kind)
		}
	}
	if tr.Events[0].Kind != "expand" {
		t.Errorf("search did not start with an EXPAND: %+v", tr.Events[0])
	}
	if expands != tr.Expansions || checks != tr.Checks {
		t.Errorf("event tally %d/%d != trace totals %d/%d", expands, checks, tr.Expansions, tr.Checks)
	}

	// An unknown trace ID is a 404 that mentions sampling.
	if code := get(t, ts, "/debug/traces/nope-000000", nil); code != http.StatusNotFound {
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
	if m[`dimsat_http_requests_total{code_class="2xx"}`] < 3 {
		t.Errorf("2xx requests = %v, want >= 3", m[`dimsat_http_requests_total{code_class="2xx"}`])
	}
	if m["dimsat_http_requests_received_total"] < 3 {
		t.Errorf("received = %v", m["dimsat_http_requests_received_total"])
	}
	if m["dimsat_search_expansions_count"] != 1 {
		t.Errorf("search effort observations = %v, want 1", m["dimsat_search_expansions_count"])
	}
	if m["dimsat_search_expansions_sum"] != float64(sat.Expansions) {
		t.Errorf("search expansions sum = %v, want %d", m["dimsat_search_expansions_sum"], sat.Expansions)
	}
	if m["dimsat_slow_searches_total"] != 1 {
		t.Errorf("slow searches = %v, want 1", m["dimsat_slow_searches_total"])
	}
	if m["dimsat_search_traces_recorded_total"] != 1 {
		t.Errorf("traces recorded = %v, want 1", m["dimsat_search_traces_recorded_total"])
	}
	if m[`dimsat_http_request_duration_seconds_bucket{code_class="2xx",le="+Inf"}`] < 1 {
		t.Error("no duration histogram samples")
	}
	if m["dimsat_uptime_seconds"] < 0 {
		t.Errorf("uptime = %v", m["dimsat_uptime_seconds"])
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
	if m["dimsat_cache_misses_total"] != 1 || m["dimsat_cache_hits_total"] != 1 {
		t.Errorf("cache misses/hits = %v/%v, want 1/1",
			m["dimsat_cache_misses_total"], m["dimsat_cache_hits_total"])
	}
	// Two requests, two effort observations; the hit observed zero, so the
	// sum equals the single computing run's work, which the cumulative
	// work counter also carries.
	if m["dimsat_search_expansions_count"] != 2 {
		t.Errorf("effort observations = %v, want 2", m["dimsat_search_expansions_count"])
	}
	if m["dimsat_search_expansions_sum"] != m["dimsat_cache_work_expansions_total"] {
		t.Errorf("per-request sum %v != cache cumulative work %v",
			m["dimsat_search_expansions_sum"], m["dimsat_cache_work_expansions_total"])
	}
	if m["dimsat_search_expansions_sum"] <= 0 {
		t.Errorf("expansions sum = %v, want > 0", m["dimsat_search_expansions_sum"])
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
		"dimsat_cache_work_expansions_total",
		"dimsat_cache_work_checks_total",
		"dimsat_cache_work_dead_ends_total",
		"dimsat_http_shed_total",
		"dimsat_http_request_timeouts_total",
		"dimsat_contained_panics_total",
		"dimsat_pool_task_errors_total",
	} {
		if _, ok := m[family]; !ok {
			t.Errorf("GET /metrics has no %s", family)
		}
	}
}

// TestTraceSampling checks that TraceEvery=2 records every other
// reasoning request and that untraced requests still get request IDs.
func TestTraceSampling(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{TraceEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/sat?category=Store")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, resp.Header.Get("X-Request-ID"))
	}
	var list struct {
		Count int      `json:"count"`
		IDs   []string `json:"ids"`
	}
	get(t, ts, "/debug/traces", &list)
	if list.Count != 2 {
		t.Fatalf("TraceEvery=2 over 4 requests recorded %d traces: %v", list.Count, list.IDs)
	}
	traced := map[string]bool{}
	for _, id := range list.IDs {
		traced[id] = true
	}
	if !traced[ids[0]] || !traced[ids[2]] || traced[ids[1]] || traced[ids[3]] {
		t.Errorf("sampled wrong requests: traced %v of %v", list.IDs, ids)
	}
}
