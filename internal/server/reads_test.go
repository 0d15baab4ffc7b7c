package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"olapdim/internal/obs"
	"olapdim/internal/paper"
	"olapdim/internal/parser"
)

// TestReasonDetailOfEveryRead checks the endpoint and detail the
// server.reason span carries for every read. /categories and /matrix take
// no argument and carry no detail; /schema reasons about nothing and
// records no server.reason span.
func TestReasonDetailOfEveryRead(t *testing.T) {
	spans := obs.NewSpanStore(0, "test")
	s, err := NewWithConfig(paper.LocationSch(), Config{Spans: spans, SpanSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// A constraint in its rendered form reads the same as sent and as
	// re-rendered.
	alpha, err := parser.ParseConstraint("Store.Country")
	if err != nil {
		t.Fatal(err)
	}
	constraint := alpha.String()
	reads := []struct {
		method, path, body string
		endpoint, detail   string
	}{
		{"GET", "/sat?category=Store", "", "/sat", "category=Store"},
		{"GET", "/explain?category=Store", "", "/explain", "category=Store"},
		{"POST", "/implies", `{"constraint":"` + constraint + `"}`, "/implies", "constraint=" + constraint},
		{"POST", "/implies", `{"constraint":"` + constraint + `","provenance":true}`, "/implies", "constraint=" + constraint},
		{"POST", "/summarizable", `{"target":"Country","from":["City"]}`, "/summarizable", "target=Country from=[City]"},
		{"POST", "/summarizable", `{"target":"Country","from":["City","State"]}`, "/summarizable", "target=Country from=[City State]"},
		{"GET", "/frozen?root=Store", "", "/frozen", "root=Store"},
		{"GET", "/sources?target=Country&max=2", "", "/sources", "target=Country max=2"},
		{"GET", "/sources?target=Country", "", "/sources", "target=Country max=2"},
		{"GET", "/sources?max=1&target=Country", "", "/sources", "target=Country max=1"},
		{"GET", "/categories", "", "/categories", ""},
		{"GET", "/matrix", "", "/matrix", ""},
		{"GET", "/schema", "", "", ""},
	}
	for _, rd := range reads {
		req, err := http.NewRequest(rd.method, ts.URL+rd.path, strings.NewReader(rd.body))
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
			t.Fatalf("%s %s = %d, want 200", rd.method, rd.path, resp.StatusCode)
		}
		traceID := resp.Header.Get("X-Trace-ID")
		// The root span is recorded just after the answer is written, so
		// wait for it; server.reason is recorded before it.
		var reason *obs.Span
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			root := false
			reason = nil
			for _, sp := range spans.Trace(traceID) {
				switch sp.Name {
				case "server.request":
					root = true
				case "server.reason":
					sp := sp
					reason = &sp
				}
			}
			if root {
				break
			}
		}
		if rd.endpoint == "" {
			if reason != nil {
				t.Errorf("%s %s recorded a server.reason span: %+v", rd.method, rd.path, reason.Attrs)
			}
			continue
		}
		if reason == nil {
			t.Errorf("%s %s: no server.reason span in trace %s", rd.method, rd.path, traceID)
			continue
		}
		if got := reason.Attrs["endpoint"]; got != rd.endpoint {
			t.Errorf("%s %s: endpoint = %q, want %q", rd.method, rd.path, got, rd.endpoint)
		}
		got, ok := reason.Attrs["detail"]
		if got != rd.detail || ok != (rd.detail != "") {
			t.Errorf("%s %s: detail = %q (set %v), want %q", rd.method, rd.path, got, ok, rd.detail)
		}
	}
}

// TestImpliesDetailIsConstraintAsSent pins the one detail that differs
// from the re-rendered argument: /implies carries its constraint as the
// client sent it, the same string its ring key holds.
func TestImpliesDetailIsConstraintAsSent(t *testing.T) {
	spans := obs.NewSpanStore(0, "test")
	s, err := NewWithConfig(paper.LocationSch(), Config{Spans: spans, SpanSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	const sent = "  Store.Country"
	resp, err := http.Post(ts.URL+"/implies", "application/json", strings.NewReader(`{"constraint":"`+sent+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /implies = %d, want 200", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, sp := range spans.Trace(traceID) {
			if sp.Name == "server.reason" {
				if got := sp.Attrs["detail"]; got != "constraint="+sent {
					t.Fatalf("detail = %q, want %q", got, "constraint="+sent)
				}
				return
			}
		}
	}
	t.Fatalf("no server.reason span in trace %s", traceID)
}
