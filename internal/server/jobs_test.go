package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/jobs"
	"olapdim/internal/paper"
)

// jobsServer builds a server with a durable job store, started, with the
// store's workers gated by the server's admission semaphore.
func jobsServer(t *testing.T, cfg Config) (*httptest.Server, *jobs.Store) {
	t.Helper()
	store, err := jobs.Open(jobs.Config{
		Dir:             t.TempDir(),
		Schema:          paper.LocationSch(),
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	cfg.Jobs = store
	s, err := NewWithConfig(paper.LocationSch(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, store
}

type jobViewResp struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	Result   *struct {
		Satisfiable *bool  `json:"satisfiable,omitempty"`
		Implied     *bool  `json:"implied,omitempty"`
		Witness     string `json:"witness,omitempty"`
	} `json:"result,omitempty"`
}

// awaitJob polls the HTTP status endpoint until the job is terminal.
func awaitJob(t *testing.T, ts *httptest.Server, id string) jobViewResp {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var v jobViewResp
	for time.Now().Before(deadline) {
		if code := get(t, ts, "/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		switch v.State {
		case "done", "failed", "cancelled":
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after 10s (state %s)", id, v.State)
	return v
}

func TestJobEndpointsLifecycle(t *testing.T) {
	ts, _ := jobsServer(t, Config{})
	var v jobViewResp
	code := post(t, ts, "/jobs", `{"kind": "sat", "category": "Store"}`, &v)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", code)
	}
	if v.ID == "" || v.Kind != "sat" {
		t.Fatalf("job view = %+v", v)
	}
	final := awaitJob(t, ts, v.ID)
	if final.State != "done" || final.Result == nil || final.Result.Satisfiable == nil || !*final.Result.Satisfiable {
		t.Fatalf("final = %+v, want done and satisfiable", final)
	}

	// The stats endpoint surfaces the job-store counters.
	st := statsOf(t, ts)
	if sub, done := statNumber(t, st, "olapdim_jobs_submitted_total"), statNumber(t, st, "olapdim_jobs_done_total"); sub != 1 || done != 1 {
		t.Fatalf("/stats jobs submitted/done = %v/%v, want 1/1", sub, done)
	}
}

func TestJobEndpointsIdempotencyAndErrors(t *testing.T) {
	ts, _ := jobsServer(t, Config{})
	var a, b jobViewResp
	if code := post(t, ts, "/jobs", `{"kind": "implies", "constraint": "Store.Country", "idempotencyKey": "k"}`, &a); code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	if code := post(t, ts, "/jobs", `{"kind": "implies", "constraint": "Store.Country", "idempotencyKey": "k"}`, &b); code != http.StatusOK {
		t.Fatalf("idempotent POST = %d, want 200", code)
	}
	if a.ID != b.ID {
		t.Errorf("idempotent resubmit created new job: %s vs %s", a.ID, b.ID)
	}
	if code := post(t, ts, "/jobs", `{"kind": "sat", "category": "Nope"}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad category POST = %d, want 400", code)
	}
	if code := post(t, ts, "/jobs", `{"kind": "wat"}`, nil); code != http.StatusBadRequest {
		t.Errorf("bad kind POST = %d, want 400", code)
	}
	if code := get(t, ts, "/jobs/j999999", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	final := awaitJob(t, ts, a.ID)
	if final.State != "done" || final.Result == nil || final.Result.Implied == nil || !*final.Result.Implied {
		t.Fatalf("final = %+v, want done and implied (paper Theorem 2 example)", final)
	}
}

func TestJobCancelEndpoint(t *testing.T) {
	ts, _ := jobsServer(t, Config{})
	var v jobViewResp
	if code := post(t, ts, "/jobs", `{"kind": "sat", "category": "Store"}`, &v); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	final := awaitJob(t, ts, v.ID)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The job already finished: cancel conflicts.
	if final.State == "done" && resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal job = %d, want 409", resp.StatusCode)
	}
	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/j999999", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestJobWorkersShareAdmission pins the tentpole wiring requirement: job
// workers occupy the same execution slots as interactive requests, so a
// server with MaxConcurrent=1 never runs a job and a request at once.
func TestJobWorkersShareAdmission(t *testing.T) {
	ts, store := jobsServer(t, Config{MaxConcurrent: 1, MaxQueue: 8, QueueWait: 5 * time.Second})
	var ids []string
	for i := 0; i < 4; i++ {
		var v jobViewResp
		body := fmt.Sprintf(`{"kind": "sat", "category": "Store", "idempotencyKey": "adm-%d"}`, i)
		if code := post(t, ts, "/jobs", body, &v); code != http.StatusAccepted {
			t.Fatalf("POST %d = %d", i, code)
		}
		ids = append(ids, v.ID)
	}
	// Interactive traffic interleaves with the job backlog on the single
	// slot; everything must still complete.
	var sat struct {
		Satisfiable bool `json:"satisfiable"`
	}
	if code := get(t, ts, "/sat?category=Store", &sat); code != http.StatusOK {
		t.Fatalf("GET /sat = %d", code)
	}
	for _, id := range ids {
		if v := awaitJob(t, ts, id); v.State != "done" {
			t.Fatalf("job %s = %+v, want done", id, v)
		}
	}
	if c := store.Counters(); c.Done != 4 {
		t.Errorf("Done = %d, want 4", c.Done)
	}
}

// raw issues one request and returns the status and body.
func raw(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestJobSubmitAnswersResultAndFinishedReads: a short job's 202 carries
// its result; once the job is off the heap its GET answers the same body
// from its record. Two failed reads of that record answer 503, never
// 404, and quarantine nothing; an unknown or malformed ID answers 404
// without a read.
func TestJobSubmitAnswersResultAndFinishedReads(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New()
	store, err := jobs.Open(jobs.Config{Dir: dir, Schema: paper.LocationSch(), Options: core.Options{Faults: inj}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	s, err := NewWithConfig(paper.LocationSch(), Config{Jobs: store})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var ids []string
	for _, body := range []string{`{"kind":"sat","category":"Store"}`, `{"kind":"implies","constraint":"Store.Country"}`} {
		code, ack := raw(t, http.MethodPost, ts.URL+"/jobs", body)
		var v jobViewResp
		if err := json.Unmarshal([]byte(ack), &v); err != nil || code != http.StatusAccepted || v.State != "done" || v.Result == nil {
			t.Fatalf("POST %s = %d %s, want 202 done with its result", body, code, ack)
		}
		if code, got := raw(t, http.MethodGet, ts.URL+"/jobs/"+v.ID, ""); code != http.StatusOK || got != ack {
			t.Errorf("GET /jobs/%s = %d %s, want the 202 body %s", v.ID, code, got, ack)
		}
		ids = append(ids, v.ID)
	}
	var list []jobViewResp
	if code := get(t, ts, "/jobs", &list); code != http.StatusOK || len(list) != 2 || list[0].ID != ids[0] || list[1].State != "done" {
		t.Errorf("GET /jobs = %d %+v, want both jobs", code, list)
	}

	reads := inj.Hits(faults.SiteSnapshotRead)
	for _, id := range []string{"j999999", "nope", "j1", "..%2Fx"} {
		if code, body := raw(t, http.MethodGet, ts.URL+"/jobs/"+id, ""); code != http.StatusNotFound {
			t.Errorf("GET /jobs/%s = %d %s, want 404", id, code, body)
		}
	}
	if inj.Hits(faults.SiteSnapshotRead) != reads {
		t.Error("an unknown job ID was looked up on disk")
	}
	if err := inj.Arm(faults.Rule{Site: faults.SiteSnapshotRead, Kind: faults.Error, On: []int{reads + 1, reads + 2}}); err != nil {
		t.Fatal(err)
	}
	code, body := raw(t, http.MethodGet, ts.URL+"/jobs/"+ids[0], "")
	var e struct{ Error *string }
	if code != http.StatusServiceUnavailable || json.Unmarshal([]byte(body), &e) != nil || e.Error == nil {
		t.Errorf("GET with two failed reads = %d %s, want 503 with a JSON error", code, body)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(q) != 0 {
		t.Errorf("failed reads quarantined %v", q)
	}
	if code, _ := raw(t, http.MethodGet, ts.URL+"/jobs/"+ids[0], ""); code != http.StatusOK {
		t.Errorf("GET after the faults = %d, want 200", code)
	}
}

// TestJobSubmitWithNoFreeSlotAnswersPending: with the only execution slot
// held by a running job, a submit answers 202 pending at once, and the
// job finishes once the slot frees.
func TestJobSubmitWithNoFreeSlotAnswersPending(t *testing.T) {
	inj := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Latency, Every: 1, Delay: 50 * time.Millisecond})
	store, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Schema: paper.LocationSch(), Options: core.Options{Faults: inj}, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	s, err := NewWithConfig(paper.LocationSch(), Config{Jobs: store, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var first, second jobViewResp
	if code := post(t, ts, "/jobs", `{"kind":"sat","category":"Store"}`, &first); code != http.StatusAccepted || first.State != "running" {
		t.Fatalf("first POST = %d %+v, want 202 running", code, first)
	}
	if code := post(t, ts, "/jobs", `{"kind":"sat","category":"City"}`, &second); code != http.StatusAccepted || second.State != "pending" {
		t.Fatalf("POST with the slot held = %d %+v, want 202 pending", code, second)
	}
	if st, err := store.Status(first.ID); err != nil || st.State != jobs.StateRunning {
		t.Fatalf("first job = %+v, %v: the second POST waited for the slot", st, err)
	}
	inj.DisarmSite(faults.SiteExpand)
	for _, id := range []string{first.ID, second.ID} {
		if v := awaitJob(t, ts, id); v.State != "done" {
			t.Fatalf("job %s = %+v, want done", id, v)
		}
	}
}
