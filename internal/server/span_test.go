package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
)

func newSpanServer(t *testing.T) (*httptest.Server, *obs.SpanStore) {
	t.Helper()
	spans := obs.NewSpanStore(0, "test")
	s, err := NewWithConfig(paper.LocationSch(), Config{Spans: spans, SpanSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, spans
}

func getWithHeader(t *testing.T, url, header, value string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if header != "" {
		req.Header.Set(header, value)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestTraceparentAdopted(t *testing.T) {
	ts, spans := newSpanServer(t)
	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}

	resp := getWithHeader(t, ts.URL+"/sat?category=Store", "traceparent", parent.Traceparent())
	if got := resp.Header.Get("X-Trace-ID"); got != parent.TraceID {
		t.Fatalf("X-Trace-ID = %q, want the adopted trace %q", got, parent.TraceID)
	}
	recorded := spans.Trace(parent.TraceID)
	var root *obs.Span
	for i := range recorded {
		if recorded[i].Name == "server.request" {
			root = &recorded[i]
		}
	}
	if root == nil {
		t.Fatalf("no server.request span recorded for the adopted trace (got %d spans)", len(recorded))
	}
	if root.ParentID != parent.SpanID {
		t.Errorf("server.request parented to %q, want the caller's span %q", root.ParentID, parent.SpanID)
	}
}

func TestTraceparentUnsampledFlagHonored(t *testing.T) {
	ts, spans := newSpanServer(t)
	// Sampled=false in the adopted context must win over SpanSample=1:
	// the caller decided this trace is not recorded.
	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: false}

	resp := getWithHeader(t, ts.URL+"/sat?category=Store", "traceparent", parent.Traceparent())
	if got := resp.Header.Get("X-Trace-ID"); got != parent.TraceID {
		t.Fatalf("X-Trace-ID = %q, want %q even for an unsampled trace", got, parent.TraceID)
	}
	if got := spans.Trace(parent.TraceID); len(got) != 0 {
		t.Fatalf("unsampled trace recorded %d spans, want none", len(got))
	}
}

func TestMalformedTraceparentReplaced(t *testing.T) {
	ts, spans := newSpanServer(t)
	hex32 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	valid := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}

	cases := map[string]string{
		"wrong shape":    "hello",
		"missing part":   "00-" + valid.TraceID + "-01",
		"uppercase hex":  "00-" + strings.ToUpper(valid.TraceID) + "-" + valid.SpanID + "-01",
		"all-zero trace": "00-00000000000000000000000000000000-" + valid.SpanID + "-01",
		"all-zero span":  "00-" + valid.TraceID + "-0000000000000000-01",
		"bad version":    "ff-" + valid.TraceID + "-" + valid.SpanID + "-01",
		"oversized":      valid.Traceparent() + strings.Repeat("-extra", 20),
		"non-hex flags":  "00-" + valid.TraceID + "-" + valid.SpanID + "-zz",
	}
	for name, tp := range cases {
		resp := getWithHeader(t, ts.URL+"/sat?category=Store", "traceparent", tp)
		got := resp.Header.Get("X-Trace-ID")
		if !hex32.MatchString(got) {
			t.Errorf("%s: X-Trace-ID %q is not a minted 32-hex trace ID", name, got)
		}
		if got == valid.TraceID {
			t.Errorf("%s: adopted the trace ID out of a malformed traceparent %q", name, tp)
		}
		// The minted replacement is fully functional: sampled (SpanSample=1)
		// and recorded under the fresh ID.
		if len(spans.Trace(got)) == 0 {
			t.Errorf("%s: replacement trace %q recorded no spans", name, got)
		}
	}
}

func TestForwardedRequestIDAdoptedAndInvalidReplaced(t *testing.T) {
	ts, _ := newSpanServer(t)

	// A syntactically valid forwarded ID (what the cluster coordinator
	// sends) is adopted verbatim.
	resp := getWithHeader(t, ts.URL+"/sat?category=Store", "X-Request-ID", "coord-000042")
	if got := resp.Header.Get("X-Request-ID"); got != "coord-000042" {
		t.Fatalf("X-Request-ID = %q, want the forwarded ID adopted", got)
	}

	// Control bytes can't even be sent through net/http; spaces, non-ASCII
	// and oversized values can, and all must be replaced by a minted ID.
	for name, bad := range map[string]string{
		"spaces":    "two words",
		"non-ascii": "идентификатор",
		"oversized": strings.Repeat("x", 200),
	} {
		resp := getWithHeader(t, ts.URL+"/sat?category=Store", "X-Request-ID", bad)
		got := resp.Header.Get("X-Request-ID")
		if got == bad || got == "" {
			t.Errorf("%s: X-Request-ID = %q, want a freshly minted replacement", name, got)
		}
		if !obs.ValidRequestID(got) {
			t.Errorf("%s: minted replacement %q is itself invalid", name, got)
		}
	}
}

// TestLatencyExemplarTraceOutlivesRing: the trace /stats names as the
// slowest request's exemplar stays readable at /debug/spans/{id} after
// many more reads than the span ring holds, and a later, slower read
// moves the pin to its own trace.
func TestLatencyExemplarTraceOutlivesRing(t *testing.T) {
	// Cache lookups 2 and 103 are the two slow reads; lookup 1 warms the
	// cache, so the search-expansions exemplar names that first read.
	const slower = 2 + 100 + 1
	inj := faults.New(
		faults.Rule{Site: faults.SiteCacheLookup, Kind: faults.Latency, Delay: 100 * time.Millisecond, On: []int{2}},
		faults.Rule{Site: faults.SiteCacheLookup, Kind: faults.Latency, Delay: 300 * time.Millisecond, On: []int{slower}},
	)
	s, err := NewWithConfig(paper.LocationSch(), Config{
		Options:    core.Options{Faults: inj},
		Spans:      obs.NewSpanStore(16, "test"),
		SpanSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	read := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/sat?category=Store")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/sat = %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Trace-ID")
	}
	// traceSpans answers the span names /debug/spans/{id} serves, waiting
	// for the root span, which is recorded just after the answer.
	traceSpans := func(id string) (int, []string) {
		t.Helper()
		var tr struct{ Spans []obs.Span }
		code := 0
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			tr.Spans = nil
			if code = get(t, ts, "/debug/spans/"+id, &tr); code == http.StatusOK && len(tr.Spans) == 2 {
				break
			}
		}
		var names []string
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
		}
		slices.Sort(names)
		return code, names
	}
	exemplar := func() string {
		t.Helper()
		h := statHistogram(t, statsOf(t, ts), "olapdim_http_request_duration_seconds", "2xx")
		if h.SlowestExemplar == nil {
			t.Fatalf("/stats 2xx latency %+v has no exemplar", h)
		}
		return h.SlowestExemplar.TraceID
	}
	want := []string{"server.reason", "server.request"}

	read()
	slow := read()
	traceSpans(slow)
	for i := 0; i < 100; i++ {
		read()
	}
	if got := exemplar(); got != slow {
		t.Fatalf("latency exemplar = %s, want the slow read's %s", got, slow)
	}
	if code, names := traceSpans(slow); code != http.StatusOK || !slices.Equal(names, want) {
		t.Fatalf("exemplar trace after 100 reads: %d %v, want 200 %v", code, names, want)
	}

	slowest := read()
	traceSpans(slowest)
	for i := 0; i < 100; i++ {
		read()
	}
	if got := exemplar(); got != slowest {
		t.Fatalf("latency exemplar = %s, want the slower read's %s", got, slowest)
	}
	if code, names := traceSpans(slowest); code != http.StatusOK || !slices.Equal(names, want) {
		t.Fatalf("new exemplar trace: %d %v, want 200 %v", code, names, want)
	}
	if code := get(t, ts, "/debug/spans/"+slow, nil); code != http.StatusNotFound {
		t.Fatalf("displaced exemplar trace = %d, want 404 once the ring moved on", code)
	}
}
