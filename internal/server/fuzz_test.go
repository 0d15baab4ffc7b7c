package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"
	"time"

	"olapdim/internal/api"
	"olapdim/internal/cluster"
	"olapdim/internal/core"
	"olapdim/internal/jobs"
	"olapdim/internal/paper"
)

// contractStatuses are the statuses of the OPERATIONS.md status-code
// contract. 500 is in the contract, for a contained panic, but no input
// may cause one while no fault is armed.
var contractStatuses = map[int]bool{
	200: true, 202: true, 301: true, 400: true, 404: true, 405: true,
	409: true, 413: true, 429: true, 503: true, 504: true,
}

// FuzzServeHTTP sends any method, request target and body to an
// in-process dimsatd (a job store that runs no job, no fault armed) and
// to a coordinator over one worker, that same dimsatd. Only requests
// net/http parses reach a handler, so an input is first read as a
// request the way a server reads one. Every answer must be inside the
// OPERATIONS.md status-code contract and none may be 500; every 4xx and
// 5xx must carry the JSON error envelope (but for HEAD, whose answers
// have no body), and a 301 (a path not in canonical form) the canonical
// path. On a table route and on a job submit, a 4xx from either node
// must be the other's answer too, status and body (but for a submit
// whose idempotency key has the "coord:" prefix, which only the
// coordinator refuses). The seeds hold, per
// table entry, one valid request, malformed ones and wrong methods, job
// submits, plus unknown paths.
func FuzzServeHTTP(f *testing.F) {
	sample := api.Args{Category: "Store", Root: "Store", Target: "Country", From: []string{"City"}, Max: 2, Constraint: "Store.Country"}
	for _, op := range api.Reads {
		method := op.Method
		target, body := op.Render(sample)
		wrong := http.MethodPost
		if method == http.MethodPost {
			wrong = http.MethodGet
		}
		f.Add(method, target, body)
		f.Add(method, op.Path, "")
		f.Add(method, op.Path+"?category=&root=&target=&max=0", "{")
		f.Add(method, op.Path+"?category=Nowhere&root=Nowhere&target=Nowhere&max=9", `{"constraint":"Store.(","target":"Nowhere","from":["City","City"]}`)
		f.Add(method, op.Path+"?category=%zz&target=Country&max=x", `{"constraint":5,"from":"City","provenance":true}`)
		f.Add(wrong, target, body)
		f.Add(http.MethodDelete, op.Path, "")
		f.Add(http.MethodHead, target, "")
	}
	for _, target := range []string{"/nope", "/sat/", "/SAT", "//sat?category=Store", "/jobs", "/jobs/j1", "/debug/spans/x", "/metrics"} {
		f.Add(http.MethodGet, target, "")
		f.Add(http.MethodPost, target, `{"kind":"sat","category":"Store"}`)
	}
	for _, body := range jobSubmitBodies {
		f.Add(http.MethodPost, "/jobs", body.body)
	}

	s, err := NewWithConfig(paper.LocationSch(), Config{
		Options:        core.Options{MaxExpansions: 100000},
		RequestTimeout: 10 * time.Second,
		Jobs:           idleJobStore(f),
	})
	if err != nil {
		f.Fatal(err)
	}
	worker := httptest.NewServer(s)
	f.Cleanup(worker.Close)
	coord, err := cluster.New(cluster.Config{Workers: []string{worker.URL}, HedgeDelay: -1, RetryBudget: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(coord.Close)

	f.Fuzz(func(t *testing.T, method, target, body string) {
		raw := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: dimsatd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", method, target, len(body), body)
		serve := func(h http.Handler) (*httptest.ResponseRecorder, bool) {
			req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
			if err != nil {
				return nil, false
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec, true
		}
		direct, ok := serve(s)
		if !ok {
			return // net/http refuses the request before any handler
		}
		via, _ := serve(coord)
		for node, rec := range map[string]*httptest.ResponseRecorder{"dimsatd": direct, "coordinator": via} {
			name := fmt.Sprintf("%s: %s %q", node, method, target)
			if !contractStatuses[rec.Code] {
				t.Fatalf("%s answered %d %s, outside the status-code contract", name, rec.Code, rec.Body)
			}
			switch {
			case rec.Code == http.StatusMovedPermanently:
				req, _ := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
				if p := req.URL.EscapedPath(); canonical(p) || rec.Header().Get("Location") == "" {
					t.Fatalf("%s redirected %q to %q", name, p, rec.Header().Get("Location"))
				}
			case rec.Code >= 400 && method != http.MethodHead: // a HEAD answer has no body
				var e struct {
					Error *string `json:"error"`
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%s answered %d with Content-Type %q", name, rec.Code, ct)
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil {
					t.Fatalf("%s answered %d with %q, not a JSON error envelope", name, rec.Code, rec.Body)
				}
			}
		}
		// Both nodes read a POST read's whole body against the cap and
		// ignore a GET's, so a refusal by either node must be the
		// worker's own.
		if via.Code/100 != 4 && direct.Code/100 != 4 {
			return
		}
		req, _ := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		routes := []string{"/jobs"}
		var sub api.JobRequest
		if json.NewDecoder(strings.NewReader(body)).Decode(&sub) == nil && strings.HasPrefix(sub.IdempotencyKey, "coord:") {
			// Only the coordinator refuses a client key in the namespace
			// of the keys it mints; a worker accepts what it forwards.
			routes = nil
		}
		if method != http.MethodPost {
			routes = nil // only a submit is compared on /jobs
		}
		for _, op := range api.Reads {
			routes = append(routes, op.Path)
		}
		for _, route := range routes {
			if req.URL.Path == route && req.URL.EscapedPath() == route {
				if via.Code != direct.Code || (method != http.MethodHead && via.Body.String() != direct.Body.String()) {
					t.Fatalf("%s %q: coordinator answered %d %s, dimsatd %d %s", method, target, via.Code, via.Body, direct.Code, direct.Body)
				}
			}
		}
	})
}

// idleJobStore opens a job store over the location schema that accepts
// submits and runs none, so no job competes with a request for a slot.
func idleJobStore(tb testing.TB) *jobs.Store {
	tb.Helper()
	store, err := jobs.Open(jobs.Config{Dir: tb.TempDir(), Schema: paper.LocationSch()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(store.Close)
	return store
}

// jobSubmitBodies are job submits whose answer both nodes must agree on:
// each node reads the first JSON value of the body, as it does for a
// read's.
var jobSubmitBodies = []struct {
	name, body string
	want       int
}{
	{"trailing garbage", `{"kind":"sat","category":"Store"}x`, http.StatusAccepted},
	{"trailing spaces", `{"kind":"sat","category":"Store"}   `, http.StatusAccepted},
	{"malformed JSON", `{"kind":"sat",`, http.StatusBadRequest},
	{"wrong field type", `{"kind":5}`, http.StatusBadRequest},
	{"unknown kind", `{"kind":"nope"}`, http.StatusBadRequest},
}

// TestOneJobSubmitRuleOnBothNodes pins the body rule of a job submit on
// both nodes: the same status, and for a refusal the same error text.
func TestOneJobSubmitRuleOnBothNodes(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{Jobs: idleJobStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(s)
	t.Cleanup(worker.Close)
	coord, err := cluster.New(cluster.Config{Workers: []string{worker.URL}, HedgeDelay: -1, RetryBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	for _, tc := range jobSubmitBodies {
		var answers [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{s, coord} {
			answers[i] = httptest.NewRecorder()
			h.ServeHTTP(answers[i], httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body)))
		}
		direct, via := answers[0], answers[1]
		if direct.Code != tc.want || via.Code != tc.want {
			t.Errorf("%s: dimsatd answered %d %s, the coordinator %d %s, want %d on both",
				tc.name, direct.Code, direct.Body, via.Code, via.Body, tc.want)
			continue
		}
		if tc.want >= 400 && via.Body.String() != direct.Body.String() {
			t.Errorf("%s: dimsatd refused with %s, the coordinator with %s", tc.name, direct.Body, via.Body)
		}
	}
}

// canonical reports whether http.ServeMux routes an escaped path as it
// is rather than redirecting it: rooted, with no empty, "." or ".."
// segment (a trailing slash is kept).
func canonical(p string) bool {
	if p == "" || p[0] != '/' {
		return false
	}
	clean := path.Clean(p)
	if strings.HasSuffix(p, "/") && clean != "/" {
		clean += "/"
	}
	return clean == p
}

// TestOneBodyRuleOnBothNodes pins the body rule both nodes apply to the
// table's reads: a GET's body is ignored, whatever its size, and a POST's
// whole body counts against the cap, also past its first JSON value.
func TestOneBodyRuleOnBothNodes(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(s)
	t.Cleanup(worker.Close)
	coord, err := cluster.New(cluster.Config{Workers: []string{worker.URL}, HedgeDelay: -1, RetryBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	pad := strings.Repeat(" ", 2<<20)
	for _, tc := range []struct {
		method, target, body string
		want                 int
	}{
		{http.MethodGet, "/sat?category=Store", pad, http.StatusOK},
		{http.MethodPost, "/implies", `{"constraint":"Store.Country"}` + pad, http.StatusRequestEntityTooLarge},
	} {
		for _, node := range []struct {
			name string
			h    http.Handler
		}{{"dimsatd", s}, {"coordinator", coord}} {
			rec := httptest.NewRecorder()
			node.h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
			if rec.Code != tc.want {
				t.Errorf("%s: %s %s with a %d-byte body answered %d %.80s, want %d", node.name, tc.method, tc.target, len(tc.body), rec.Code, rec.Body, tc.want)
			}
		}
	}
}
