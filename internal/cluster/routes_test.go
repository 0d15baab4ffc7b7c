package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

// TestRingKeyOfEveryRead lists the ring key of every read and of both job
// kinds. A coordinator whose one worker refuses connections names the
// key of each read in its 503; a placed job carries its key in the job
// tracker. The implies keys hold the constraint as sent, spaces included.
func TestRingKeyOfEveryRead(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c, err := New(Config{
		Workers:     []string{deadURL},
		HedgeDelay:  -1,
		RetryBudget: -1,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)

	reads := []struct{ method, path, body, key string }{
		{"GET", "/sat?category=Store", "", "sat/Store"},
		{"GET", "/explain?category=Store", "", "sat/Store"},
		{"POST", "/implies", `{"constraint":" Store.Country"}`, "implies/ Store.Country"},
		{"POST", "/implies", `{"constraint":"Store_City","provenance":true}`, "implies/Store_City"},
		{"POST", "/summarizable", `{"target":"Country","from":["City"]}`, "summarizable/Country"},
		{"GET", "/sources?target=Country&max=2", "", "sources/Country"},
		{"GET", "/sources?target=Country", "", "sources/Country"},
		{"GET", "/frozen?root=Store", "", "frozen/Store"},
		{"GET", "/categories", "", "categories"},
		{"GET", "/matrix", "", "matrix"},
		{"GET", "/schema", "", "schema"},
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
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("%s %s: body %q: %v", rd.method, rd.path, b, err)
		}
		want := `all candidate workers failed for key "` + rd.key + `"`
		if resp.StatusCode != http.StatusServiceUnavailable || e.Error != want {
			t.Errorf("%s %s = %d %q, want 503 %q", rd.method, rd.path, resp.StatusCode, e.Error, want)
		}
	}

	w := startWorker(t, paper.LocationSch(), nil)
	live, lts := startCoordinator(t, Config{HedgeDelay: -1}, w.URL)
	jobsSent := []struct{ body, key string }{
		{`{"kind":"sat","category":"Store"}`, "sat/Store"},
		{`{"kind":"implies","constraint":" Store.Country"}`, "implies/ Store.Country"},
	}
	for _, j := range jobsSent {
		var v clusterJobView
		if code := coordPost(t, lts.URL, "/jobs", j.body, &v); code != http.StatusAccepted {
			t.Fatalf("POST /jobs %s = %d, want 202", j.body, code)
		}
		snap, ok := live.jobs.snapshot(v.ID)
		if !ok || snap.Key != j.key {
			t.Errorf("job %s key = %q, want %q", j.body, snap.Key, j.key)
		}
	}
}

// TestUnmatchedRoutesAnswerJSON sends an unknown path and wrong methods
// to a dimsatd without a job store and to a coordinator over it. Both
// keep the status and the Allow header of http.ServeMux, answer HEAD
// wherever GET is served, and write the JSON error envelope.
func TestUnmatchedRoutesAnswerJSON(t *testing.T) {
	srv, err := server.New(paper.LocationSch(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewServer(srv)
	t.Cleanup(w.Close)
	_, coord := startCoordinator(t, Config{HedgeDelay: -1}, w.URL)

	cases := []struct {
		node, method, path string
		status             int
		allow              string
	}{
		{"dimsatd", "GET", "/nope", http.StatusNotFound, ""},
		{"dimsatd", "POST", "/sat", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"dimsatd", "GET", "/implies", http.StatusMethodNotAllowed, "POST"},
		{"dimsatd", "DELETE", "/metrics", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"dimsatd", "POST", "/jobs", http.StatusNotFound, ""},
		{"dimsatd", "HEAD", "/sat?category=Store", http.StatusOK, ""},
		{"coordinator", "GET", "/nope", http.StatusNotFound, ""},
		{"coordinator", "POST", "/sat", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"coordinator", "GET", "/implies", http.StatusMethodNotAllowed, "POST"},
		{"coordinator", "PUT", "/jobs", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"coordinator", "POST", "/jobs/cj000001", http.StatusMethodNotAllowed, "DELETE, GET, HEAD"},
		{"coordinator", "HEAD", "/sat?category=Store", http.StatusOK, ""},
	}
	for _, tc := range cases {
		base := w.URL
		if tc.node == "coordinator" {
			base = coord.URL
		}
		req, err := http.NewRequest(tc.method, base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		name := tc.node + " " + tc.method + " " + tc.path
		if resp.StatusCode != tc.status {
			t.Errorf("%s = %d, want %d", name, resp.StatusCode, tc.status)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow = %q, want %q", name, got, tc.allow)
		}
		if tc.status < 400 {
			continue
		}
		var e struct {
			Error *string `json:"error"`
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", name, ct)
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Error == nil || *e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error envelope", name, b)
		}
	}
}

// TestCoordinatorJobSubmitRejectedByWorker submits jobs a worker refuses.
// The coordinator relays the worker's 400, tracks nothing, and answers a
// retried submit with the same idempotency key with the same 400, never
// with a view of a job no worker holds. With no worker answering, it
// answers 503 and tracks nothing either.
func TestCoordinatorJobSubmitRejectedByWorker(t *testing.T) {
	w := startWorker(t, paper.LocationSch(), nil)
	_, coord := startCoordinator(t, Config{HedgeDelay: -1}, w.URL)

	post := func(base, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, body := range []string{
		`{"kind":"bogus","category":"Store"}`,
		`{"kind":"sat","category":"Nowhere"}`,
		`{"kind":"implies","constraint":"Store.("}`,
		`{"kind":"bogus","category":"Store","idempotencyKey":"client-key-1"}`,
		`{"kind":"bogus","category":"Store","idempotencyKey":"client-key-1"}`,
	} {
		wantCode, wantBody := post(w.URL, body)
		if wantCode != http.StatusBadRequest {
			t.Fatalf("worker answered %s with %d %s, want 400", body, wantCode, wantBody)
		}
		if code, got := post(coord.URL, body); code != wantCode || got != wantBody {
			t.Errorf("coordinator answered %s with %d %s, want the worker's %d %s", body, code, got, wantCode, wantBody)
		}
	}
	var list []clusterJobView
	if code := coordGet(t, coord.URL, "/jobs", &list); code != http.StatusOK || len(list) != 0 {
		t.Errorf("GET /jobs = %d %+v, want 200 and no jobs", code, list)
	}
	var status clusterStatusView
	if code := coordGet(t, coord.URL, "/cluster", &status); code != http.StatusOK || status.Jobs != 0 {
		t.Errorf("GET /cluster = %d, %d jobs, want 200 and 0", code, status.Jobs)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c, deadCoord := startCoordinator(t, Config{HedgeDelay: -1}, deadURL)
	body := `{"kind":"sat","category":"Store","idempotencyKey":"client-key-2"}`
	for i := 0; i < 2; i++ {
		if code, got := post(deadCoord.URL, body); code != http.StatusServiceUnavailable {
			t.Errorf("submit %d with no worker answering = %d %s, want 503", i, code, got)
		}
	}
	if n := c.jobs.count(); n != 0 {
		t.Errorf("coordinator tracks %d jobs after unplaced submits, want 0", n)
	}
}
