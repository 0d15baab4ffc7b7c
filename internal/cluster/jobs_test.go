package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"olapdim/internal/api"
	"olapdim/internal/core"
	"olapdim/internal/jobs"
	"olapdim/internal/loadgen"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

// shortWorker boots a dimsatd worker whose job store checkpoints at the
// default period, so a short job is answered done by its submit.
func shortWorker(t *testing.T, schema *core.DimensionSchema) *httptest.Server {
	t.Helper()
	store, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := server.NewWithConfig(schema, server.Config{Jobs: store})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// send issues one request to h and returns the status and body.
func send(h http.Handler, method, target, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestCoordinatorSubmitAnswersFinishedJob: a short job's 202 carries its
// result from the worker, and once finished the coordinator answers the
// same body from its record of the job.
func TestCoordinatorSubmitAnswersFinishedJob(t *testing.T) {
	w := shortWorker(t, paper.LocationSch())
	c, _ := startCoordinator(t, Config{HedgeDelay: -1}, w.URL)
	for _, body := range []string{
		`{"kind":"sat","category":"Store"}`,
		`{"kind":"implies","constraint":"Store.Country"}`,
	} {
		code, ack := send(c, http.MethodPost, "/jobs", body)
		var v clusterJobView
		if err := json.Unmarshal(ack, &v); err != nil || code != http.StatusAccepted || v.State != "done" || v.Result == nil {
			t.Fatalf("POST %s = %d %s, want 202 done with its result", body, code, ack)
		}
		code, got := send(c, http.MethodGet, "/jobs/"+v.ID, "")
		if code != http.StatusOK || !bytes.Equal(got, ack) {
			t.Errorf("GET /jobs/%s = %d %s, want the 202 body %s", v.ID, code, got, ack)
		}
		if code, _ := send(c, http.MethodDelete, "/jobs/"+v.ID, ""); code != http.StatusConflict {
			t.Errorf("DELETE finished job = %d, want 409", code)
		}
	}
	code, list := send(c, http.MethodGet, "/jobs", "")
	var views []clusterJobView
	if err := json.Unmarshal(list, &views); err != nil || code != http.StatusOK || len(views) != 2 || views[1].State != "done" {
		t.Errorf("GET /jobs = %d %s, want both jobs", code, list)
	}
	if code, _ := send(c, http.MethodGet, "/jobs/cj999999", ""); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
}

// TestCoordinatorRefusesMintedKeys: a client key in the namespace of the
// keys the coordinator mints is refused, so it can never alias the job a
// minted key names; client keys still dedupe.
func TestCoordinatorRefusesMintedKeys(t *testing.T) {
	w := shortWorker(t, paper.LocationSch())
	c, _ := startCoordinator(t, Config{HedgeDelay: -1}, w.URL)
	code, body := send(c, http.MethodPost, "/jobs", `{"kind":"sat","category":"Store"}`)
	var first clusterJobView
	if err := json.Unmarshal(body, &first); err != nil || code != http.StatusAccepted {
		t.Fatalf("keyless submit = %d %s", code, body)
	}
	alias := fmt.Sprintf(`{"kind":"implies","constraint":"Store.Country","idempotencyKey":"coord:%s"}`, first.ID)
	code, body = send(c, http.MethodPost, "/jobs", alias)
	var e struct{ Error string }
	if code != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "reserved") {
		t.Fatalf("submit with key coord:%s = %d %s, want 400", first.ID, code, body)
	}
	keyed := `{"kind":"sat","category":"City","idempotencyKey":"client-1"}`
	if code, _ := send(c, http.MethodPost, "/jobs", keyed); code != http.StatusAccepted {
		t.Fatalf("client-keyed submit = %d, want 202", code)
	}
	if code, _ := send(c, http.MethodPost, "/jobs", keyed); code != http.StatusOK {
		t.Fatalf("client-keyed resubmit = %d, want 200", code)
	}
}

// TestCoordinatorRestartMintsFreshKeys: a restarted coordinator numbers
// its jobs from cj000001 again, but a keyless submit must not be
// answered with the job a previous boot's submit of that number left on
// the worker.
func TestCoordinatorRestartMintsFreshKeys(t *testing.T) {
	w := shortWorker(t, paper.LocationSch())
	var kinds []string
	for _, body := range []string{`{"kind":"sat","category":"Store"}`, `{"kind":"implies","constraint":"City.Country"}`} {
		c, err := New(Config{Workers: []string{w.URL}, HedgeDelay: -1})
		if err != nil {
			t.Fatal(err)
		}
		code, got := send(c, http.MethodPost, "/jobs", body)
		c.Close()
		var v clusterJobView
		if err := json.Unmarshal(got, &v); err != nil || code != http.StatusAccepted || v.ID != "cj000001" {
			t.Fatalf("POST %s to a fresh coordinator = %d %s, want 202 for a new cj000001", body, code, got)
		}
		kinds = append(kinds, v.Kind)
	}
	if kinds[1] != "implies" {
		t.Errorf("the second boot's implies submit was answered with a %s job", kinds[1])
	}
}

// countingTransport answers every request with status and counts the
// requests per path.
type countingTransport struct {
	status int
	body   string
	paths  chan string
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	select {
	case ct.paths <- r.URL.Path:
	default:
	}
	return &http.Response{
		StatusCode: ct.status,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(ct.body)),
		Request:    r,
	}, nil
}

// TestPollRoundVisitsLiveJobsOnly: a mirror round over 10,000 finished
// jobs and one live job asks the worker about the live job only.
func TestPollRoundVisitsLiveJobsOnly(t *testing.T) {
	const worker = "http://worker.test"
	ct := &countingTransport{status: http.StatusOK, body: `{"id":"j000001","state":"running"}`, paths: make(chan string, 100)}
	c, err := New(Config{Workers: []string{worker}, Transport: ct, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		t := &trackedJob{ID: c.jobs.newID(), Worker: worker, WorkerID: fmt.Sprintf("j%06d", i+2)}
		t.apply("", []byte(`{"id":"x","state":"done"}`))
		c.jobs.add(t)
	}
	live := &trackedJob{ID: c.jobs.newID(), Worker: worker, WorkerID: "j000001", State: "running"}
	c.jobs.add(live)
	c.pollJobs()
	close(ct.paths)
	var got []string
	for p := range ct.paths {
		got = append(got, p)
	}
	if len(got) == 0 || len(got) > 2 {
		t.Fatalf("poll round sent %d requests %v, want the live job's status and checkpoint", len(got), got)
	}
	for _, p := range got {
		if !strings.HasPrefix(p, "/jobs/j000001") {
			t.Errorf("poll round asked about %s, want only the live job j000001", p)
		}
	}
	if n := c.jobs.count(); n != 10001 {
		t.Errorf("count = %d, want 10001", n)
	}
}

// fakeWorker answers job submits with the final view a real worker gave
// for the same request, under a fresh worker ID and the submit's trace.
type fakeWorker struct {
	views map[string]string // kind and argument → final view
	seq   atomic.Int64
}

func (f *fakeWorker) RoundTrip(r *http.Request) (*http.Response, error) {
	var req api.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, err
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(f.views[req.Kind+req.Category+req.Constraint]), &v); err != nil {
		return nil, err
	}
	v["id"] = fmt.Sprintf("j%06d", f.seq.Add(1))
	sc, _ := obs.ParseTraceparent(req.TraceContext)
	v["traceId"] = sc.TraceID
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusAccepted,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    r,
	}, nil
}

// TestCoordinatorFinishedJobsLeaveTheHeap submits 10,000 short jobs
// through a coordinator — sat and implies alternating on a
// loadgen.Defaults family member, as the cluster-write benchmark sends
// them, each given a minted key and a traceparent by the coordinator —
// and bounds what it retains per finished job: the job's client view.
// The worker answers with the views a real worker gave for the same
// requests, so the heap measured is the coordinator's alone.
func TestCoordinatorFinishedJobsLeaveTheHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("tracks 10,000 jobs")
	}
	const n, warm = 10000, 3000
	const ceiling = 450 // bytes per finished tracked job
	spec := loadgen.Defaults()
	spec.Seed = 7
	p, err := loadgen.NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for nsat, nimp := 0, 0; nsat < 32 || nimp < 32; {
		r := p.Next()
		switch {
		case r.Op == loadgen.OpSat && nsat < 32:
			u, _ := url.Parse(r.Path)
			bodies = append(bodies, fmt.Sprintf(`{"kind":"sat","category":%q}`, u.Query().Get("category")))
			nsat++
		case r.Op == loadgen.OpImplies && nimp < 32:
			var in struct{ Constraint string }
			if err := json.Unmarshal([]byte(r.Body), &in); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, fmt.Sprintf(`{"kind":"implies","constraint":%q}`, in.Constraint))
			nimp++
		}
	}
	// The real worker's final view of each request.
	w := shortWorker(t, p.Schema())
	fw := &fakeWorker{views: map[string]string{}}
	for _, body := range bodies {
		var req api.JobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		var v clusterJobView
		if code := coordPost(t, w.URL, "/jobs", body, &v); code != http.StatusAccepted {
			t.Fatalf("worker POST %s = %d", body, code)
		}
		resp, err := http.Get(w.URL + "/jobs/" + v.ID)
		for deadline := time.Now().Add(10 * time.Second); ; {
			if err != nil {
				t.Fatal(err)
			}
			view, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if json.Unmarshal(view, &v) == nil && v.State == "done" {
				fw.views[req.Kind+req.Category+req.Constraint] = string(view)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s not done: %s", v.ID, view)
			}
			time.Sleep(2 * time.Millisecond)
			resp, err = http.Get(w.URL + "/jobs/" + v.ID)
		}
	}

	c, err := New(Config{Workers: []string{"http://worker.test"}, Transport: fw, HedgeDelay: -1, BreakerThreshold: -1, RetryBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(i int) {
		code, body := send(c, http.MethodPost, "/jobs", bodies[i%len(bodies)])
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d %s", code, body)
		}
	}
	for i := 0; i < warm; i++ { // fills the span ring and every pool
		submit(i)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		submit(i)
	}
	if live := c.StatusView().Workers[0].Jobs; live != 0 {
		t.Fatalf("%d jobs still live", live)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	perJob := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("retained heap: %.0f B per finished tracked job", perJob)
	if perJob > ceiling {
		t.Errorf("coordinator retains %.0f B per finished job, want at most %d", perJob, ceiling)
	}
}
