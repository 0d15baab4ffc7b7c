package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"olapdim/internal/jobs"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

// TestRunnerSmoke drives a real in-process server with the full default
// mix, durable jobs included, for a fixed number of requests: every one
// must succeed, and the server must have searched and run jobs.
func TestRunnerSmoke(t *testing.T) {
	spec := Defaults()
	spec.Seed = 42
	spec.Duration = time.Minute
	spec.MaxRequests = 400
	spec.Concurrency = 4

	// The server must host the exact schema the runner's planner will
	// regenerate from the same spec — determinism is what makes this
	// rendezvous work without passing the schema out of band.
	p, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := p.Schema()
	store, err := jobs.Open(jobs.Config{
		Dir:             t.TempDir(),
		Schema:          ds,
		CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := server.NewWithConfig(ds, server.Config{Jobs: store})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := (&Runner{Spec: spec, Base: ts.URL}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if *rep != (Report{Requests: 400}) {
		t.Errorf("report = %+v, want 400 requests and no error or shed", *rep)
	}
	m, err := Scrape(ctx, http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"olapdim_cache_work_expansions_total", "olapdim_jobs_done_total"} {
		if m[family] <= 0 {
			t.Errorf("%s = %v after the run, want > 0", family, m[family])
		}
	}
}

// TestRunnerCountsFailures runs against a target that fails by the
// category a request names: Store answers 500, City 429, State drops the
// connection, and a job on Province ends failed; every other request
// succeeds, a job after one poll. The report must count exactly what
// the planned stream holds, and every planned request.
func TestRunnerCountsFailures(t *testing.T) {
	spec := Spec{
		Seed:        5,
		SchemaText:  paper.LocationSch().Format(),
		Mix:         map[string]int{OpSat: 3, OpJobs: 1},
		Concurrency: 3,
		Duration:    time.Minute,
		MaxRequests: 120,
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		category := r.URL.Query().Get("category")
		if r.Method == http.MethodPost {
			var job struct{ Category string }
			json.NewDecoder(r.Body).Decode(&job)
			category = job.Category
		}
		switch {
		case category == "Store":
			http.Error(w, "internal error", http.StatusInternalServerError)
		case category == "City":
			http.Error(w, "overloaded", http.StatusTooManyRequests)
		case category == "State":
			panic(http.ErrAbortHandler)
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]string{"id": category, "state": "running"})
		case strings.HasPrefix(r.URL.Path, "/jobs/"):
			state := "done"
			if id := strings.TrimPrefix(r.URL.Path, "/jobs/"); id == "Province" {
				state = "failed"
			}
			json.NewEncoder(w).Encode(map[string]string{"id": "j", "state": state})
		default:
			w.Write([]byte("{}\n"))
		}
	}))
	t.Cleanup(ts.Close)

	want := Report{Requests: int64(spec.MaxRequests)}
	p, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.MaxRequests; i++ {
		req := p.Next()
		category := ""
		if req.Op == OpJobs {
			var job struct{ Category string }
			if err := json.Unmarshal([]byte(req.Body), &job); err != nil {
				t.Fatal(err)
			}
			category = job.Category
		} else if u, err := url.Parse(req.Path); err == nil {
			category = u.Query().Get("category")
		}
		switch {
		case category == "City":
			want.Shed++
		case category == "State":
			want.TransportErrors++
			want.Errors++
		case category == "Store", category == "Province" && req.Op == OpJobs:
			want.Errors++
		}
	}
	if want.Shed == 0 || want.TransportErrors == 0 || want.Errors == want.TransportErrors {
		t.Fatalf("planned stream %+v lacks a 500, a 429 or a dropped connection", want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := (&Runner{Spec: spec, Base: ts.URL}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if *rep != want {
		t.Errorf("report = %+v, want %+v", *rep, want)
	}
}
