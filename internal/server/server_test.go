package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := New(paper.LocationSch(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// statsOf reads GET /stats, the registry's JSON view: one entry per
// metric family, keyed by its /metrics name.
func statsOf(t *testing.T, ts *httptest.Server) map[string]json.RawMessage {
	t.Helper()
	var st map[string]json.RawMessage
	if code := get(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	return st
}

// statNumber decodes a plain counter's or gauge's /stats value.
func statNumber(t *testing.T, st map[string]json.RawMessage, family string) float64 {
	t.Helper()
	var v float64
	if err := json.Unmarshal(st[family], &v); err != nil {
		t.Fatalf("/stats %s = %s: %v", family, st[family], err)
	}
	return v
}

// histogramStats is a histogram's /stats value; the quantiles are nil
// while it is empty.
type histogramStats struct {
	Count           uint64        `json:"count"`
	Sum             float64       `json:"sum"`
	P50             *float64      `json:"p50"`
	P90             *float64      `json:"p90"`
	P99             *float64      `json:"p99"`
	P999            *float64      `json:"p999"`
	SlowestExemplar *obs.Exemplar `json:"slowestExemplar"`
}

// statHistogram decodes a histogram's /stats value: the series of the
// labeled family at label, or the plain family when label is "".
func statHistogram(t *testing.T, st map[string]json.RawMessage, family, label string) histogramStats {
	t.Helper()
	raw := st[family]
	if label != "" {
		var series map[string]json.RawMessage
		if err := json.Unmarshal(raw, &series); err != nil {
			t.Fatalf("/stats %s = %s: %v", family, raw, err)
		}
		raw = series[label]
	}
	var h histogramStats
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("/stats %s{%s} = %s: %v", family, label, raw, err)
	}
	return h
}

func post(t *testing.T, ts *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestSourcesEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Target  string     `json:"target"`
		MaxSize int        `json:"maxSize"`
		Sources [][]string `json:"sources"`
	}
	if code := get(t, ts, "/sources?target=Country&max=1", &resp); code != http.StatusOK {
		t.Fatalf("/sources = %d", code)
	}
	if resp.Target != "Country" || resp.MaxSize != 1 {
		t.Errorf("response echo = %+v", resp)
	}
	// {Country} itself is always a certified singleton source.
	found := false
	for _, s := range resp.Sources {
		if len(s) == 1 && s[0] == "Country" {
			found = true
		}
	}
	if !found {
		t.Errorf("sources = %v, want to contain [Country]", resp.Sources)
	}

	for _, c := range []struct {
		path string
		code int
	}{
		{"/sources", http.StatusBadRequest},             // missing target
		{"/sources?target=Nope", http.StatusBadRequest}, // unknown category
		{"/sources?target=Country&max=0", http.StatusBadRequest},
		{"/sources?target=Country&max=99", http.StatusBadRequest}, // over the cap
		{"/sources?target=Country&max=x", http.StatusBadRequest},
	} {
		if code := get(t, ts, c.path, nil); code != c.code {
			t.Errorf("GET %s = %d, want %d", c.path, code, c.code)
		}
	}
}

// TestStatsQuantiles checks that /stats reports interpolated latency and
// effort quantiles once requests have completed, and omits them on a
// fresh server instead of reporting zeros.
func TestStatsQuantiles(t *testing.T) {
	ts := testServer(t)
	if h := statHistogram(t, statsOf(t, ts), "olapdim_search_expansions", ""); h.Count != 0 || h.P50 != nil || h.P999 != nil {
		t.Errorf("fresh /stats olapdim_search_expansions = %+v, want no observations and no quantiles", h)
	}

	if code := get(t, ts, "/sat?category=Store", nil); code != http.StatusOK {
		t.Fatalf("/sat = %d", code)
	}
	st := statsOf(t, ts)
	lat := statHistogram(t, st, "olapdim_http_request_duration_seconds", "2xx")
	if lat.Count == 0 || lat.P50 == nil || lat.P999 == nil {
		t.Fatalf("2xx latency missing after a 2xx request: %+v", lat)
	}
	if *lat.P999 < *lat.P50 {
		t.Errorf("p999 %v < p50 %v", *lat.P999, *lat.P50)
	}
	if exp := statHistogram(t, st, "olapdim_search_expansions", ""); exp.Count == 0 || exp.P50 == nil {
		t.Fatalf("olapdim_search_expansions missing after a search: %+v", exp)
	}
}

// TestBuildInfoMetric checks the olapdim_build_info gauge is exposed
// with the three metadata labels.
func TestBuildInfoMetric(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "olapdim_build_info{") {
		t.Fatalf("/metrics has no olapdim_build_info:\n%s", text[:min(len(text), 400)])
	}
	for _, label := range []string{`goversion="go`, `revision="`, `version="`} {
		if !strings.Contains(text, label) {
			t.Errorf("olapdim_build_info missing label %s", label)
		}
	}
}

func TestSchemaEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "schema location") || !strings.Contains(text, "constraint Store_City") {
		t.Errorf("schema body:\n%s", text)
	}
}

func TestCategoriesEndpoint(t *testing.T) {
	ts := testServer(t)
	var cats []struct {
		Name        string `json:"name"`
		Satisfiable bool   `json:"satisfiable"`
		Bottom      bool   `json:"bottom"`
	}
	if code := get(t, ts, "/categories", &cats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(cats) != 7 {
		t.Fatalf("categories = %d", len(cats))
	}
	for _, c := range cats {
		if !c.Satisfiable {
			t.Errorf("category %s unsatisfiable", c.Name)
		}
		if c.Bottom != (c.Name == "Store") {
			t.Errorf("category %s bottom = %v", c.Name, c.Bottom)
		}
	}
}

func TestSatEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp satResponse
	if code := get(t, ts, "/sat?category=Store", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.Satisfiable || resp.Witness == "" || resp.Expansions == 0 {
		t.Errorf("response = %+v", resp)
	}
	if code := get(t, ts, "/sat?category=Ghost", nil); code != 400 {
		t.Errorf("unknown category status %d", code)
	}
	if code := get(t, ts, "/sat", nil); code != 400 {
		t.Errorf("missing category status %d", code)
	}
}

func TestImpliesEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp impliesResponse
	if code := post(t, ts, "/implies", `{"constraint": "Store.Country"}`, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.Implied {
		t.Error("Store.Country should be implied")
	}
	resp = impliesResponse{}
	if code := post(t, ts, "/implies", `{"constraint": "Store_SaleRegion"}`, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Implied || resp.Counterexample == "" {
		t.Errorf("response = %+v", resp)
	}
	if code := post(t, ts, "/implies", `{"constraint": "("}`, nil); code != 400 {
		t.Errorf("bad constraint status %d", code)
	}
	if code := post(t, ts, "/implies", `{`, nil); code != 400 {
		t.Errorf("bad JSON status %d", code)
	}
}

func TestSummarizableEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp summarizableResponse
	if code := post(t, ts, "/summarizable", `{"target":"Country","from":["City"]}`, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.Summarizable || len(resp.PerBottom) != 1 {
		t.Errorf("response = %+v", resp)
	}
	resp = summarizableResponse{}
	if code := post(t, ts, "/summarizable", `{"target":"Country","from":["State","Province"]}`, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Summarizable {
		t.Error("Example 10's negative case certified")
	}
	if resp.PerBottom[0].Counterexample == "" {
		t.Error("missing counterexample")
	}
	if code := post(t, ts, "/summarizable", `{"target":"Ghost","from":["City"]}`, nil); code != 400 {
		t.Errorf("unknown target status %d", code)
	}
	if code := post(t, ts, "/summarizable", `{"target":"Country","from":["City","City"]}`, nil); code != 400 {
		t.Errorf("repeated source status %d", code)
	}
}

func TestFrozenEndpoint(t *testing.T) {
	ts := testServer(t)
	var fs []string
	if code := get(t, ts, "/frozen?root=Store", &fs); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(fs) != 4 {
		t.Errorf("frozen = %v", fs)
	}
	if code := get(t, ts, "/frozen", nil); code != 400 {
		t.Errorf("missing root status %d", code)
	}
}

func TestMatrixEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp matrixResponse
	if code := get(t, ts, "/matrix", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Categories) != 6 {
		t.Errorf("categories = %v", resp.Categories)
	}
	if !resp.Complete {
		t.Error("unbudgeted matrix should be complete")
	}
	if resp.From["Country"]["City"] != "yes" || resp.From["Country"]["State"] != "no" {
		t.Errorf("matrix = %v", resp.From["Country"])
	}
}

func TestNewRejectsInvalidSchema(t *testing.T) {
	if _, err := New(core.NewDimensionSchema(nil), core.Options{}); err == nil {
		t.Error("invalid schema accepted")
	}
}

// TestConcurrentRequests hammers the read-only endpoints from several
// goroutines; run with -race this validates the documented concurrency
// safety of the service.
func TestConcurrentRequests(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				var resp *http.Response
				var err error
				if j%2 == 0 {
					resp, err = http.Get(ts.URL + "/sat?category=Store")
				} else {
					resp, err = http.Post(ts.URL+"/summarizable", "application/json",
						strings.NewReader(`{"target":"Country","from":["City"]}`))
				}
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Warm the cache: two identical sat queries, the second must hit.
	if code := get(t, ts, "/sat?category=Store", nil); code != 200 {
		t.Fatalf("status %d", code)
	}
	if code := get(t, ts, "/sat?category=Store", nil); code != 200 {
		t.Fatalf("status %d", code)
	}
	st := statsOf(t, ts)
	if n := statNumber(t, st, "olapdim_http_requests_received_total"); n < 3 {
		t.Errorf("requests = %v, want >= 3", n)
	}
	hits, misses := statNumber(t, st, "olapdim_cache_hits_total"), statNumber(t, st, "olapdim_cache_misses_total")
	if misses != 1 || hits != 1 {
		t.Errorf("cache hits/misses = %v/%v, want 1/1", hits, misses)
	}
	if statNumber(t, st, "olapdim_cache_work_expansions_total") == 0 {
		t.Error("no cumulative search effort recorded")
	}
	if up := statNumber(t, st, "olapdim_uptime_seconds"); up < 0 {
		t.Errorf("uptime = %f", up)
	}
}

// TestRequestTimeout wires an immediately-expiring per-request deadline
// and checks that reasoning endpoints answer 504 instead of hanging —
// except /matrix, which degrades to a partial all-unknown response.
func TestRequestTimeout(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	if code := get(t, ts, "/sat?category=Store", nil); code != http.StatusGatewayTimeout {
		t.Errorf("sat status = %d, want 504", code)
	}
	var m matrixResponse
	if code := get(t, ts, "/matrix", &m); code != 200 {
		t.Errorf("matrix status = %d, want 200 (partial degradation)", code)
	}
	if m.Complete {
		t.Error("matrix under an expired deadline reported complete")
	}
	if got := m.From["Country"]["City"]; got != "unknown" {
		t.Errorf("cell under expired deadline = %q, want unknown", got)
	}
	// Non-reasoning endpoints are unaffected by the deadline.
	if code := get(t, ts, "/stats", nil); code != 200 {
		t.Errorf("stats status = %d, want 200", code)
	}
	if n := statNumber(t, statsOf(t, ts), "olapdim_http_request_timeouts_total"); n < 1 {
		t.Errorf("timeouts = %v, want >= 1", n)
	}
}

// TestSharedCacheAcrossRequests checks that the category sweep reuses
// satisfiability results computed by earlier requests.
func TestSharedCacheAcrossRequests(t *testing.T) {
	ts := testServer(t)
	if code := get(t, ts, "/categories", nil); code != 200 {
		t.Fatalf("status %d", code)
	}
	first := statsOf(t, ts)
	if code := get(t, ts, "/categories", nil); code != 200 {
		t.Fatalf("status %d", code)
	}
	second := statsOf(t, ts)
	if m1, m2 := statNumber(t, first, "olapdim_cache_misses_total"), statNumber(t, second, "olapdim_cache_misses_total"); m2 != m1 {
		t.Errorf("second sweep recomputed: misses %v -> %v", m1, m2)
	}
	if h1, h2 := statNumber(t, first, "olapdim_cache_hits_total"), statNumber(t, second, "olapdim_cache_hits_total"); h2 <= h1 {
		t.Errorf("second sweep did not hit the cache: hits %v -> %v", h1, h2)
	}
}

func TestBudgetExceededMapsTo503(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{Options: core.Options{MaxExpansions: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	if code := get(t, ts, "/sat?category=Store", nil); code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", code)
	}
}
